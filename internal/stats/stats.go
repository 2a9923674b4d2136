// Package stats provides the descriptive statistics used by the analysis
// layer: percentiles, empirical CDFs (optionally weighted, for the
// paper's "fraction of data transferred" curves), simple linear
// regression (as used by Pasquale & Polyzos's related studies), and
// burstiness measures.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample by linear interpolation. It panics on an empty sample or an
// out-of-range p.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %g out of range", p))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CV returns the coefficient of variation (std/mean), a standard
// burstiness indicator for inter-arrival series. Zero-mean samples
// return 0.
func CV(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// Point is one step of an empirical CDF: cumulative probability F at
// value X (i.e. P[V <= X] = F).
type Point struct {
	X float64
	F float64
}

// CDF is an empirical (optionally weighted) cumulative distribution.
type CDF struct {
	points []Point
}

// NewCDF builds the empirical CDF of a sample, each value with equal
// weight. An empty sample yields an empty CDF.
func NewCDF(values []float64) CDF {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return NewWeightedCDF(values, w)
}

// NewWeightedCDF builds a CDF where each value contributes its weight —
// the paper's "fraction of data transferred by requests of size <= x"
// curves weight each request by its byte count. Negative weights panic;
// values and weights must have equal length.
func NewWeightedCDF(values, weights []float64) CDF {
	if len(values) != len(weights) {
		panic("stats: values and weights length mismatch")
	}
	if len(values) == 0 {
		return CDF{}
	}
	type vw struct{ v, w float64 }
	rows := make([]vw, len(values))
	var total float64
	for i := range values {
		if weights[i] < 0 {
			panic("stats: negative weight")
		}
		rows[i] = vw{values[i], weights[i]}
		total += weights[i]
	}
	if total == 0 {
		return CDF{}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v < rows[j].v })
	var pts []Point
	var cum float64
	for i := 0; i < len(rows); {
		j := i
		var w float64
		for j < len(rows) && rows[j].v == rows[i].v {
			w += rows[j].w
			j++
		}
		cum += w
		pts = append(pts, Point{X: rows[i].v, F: cum / total})
		i = j
	}
	// Guard against float accumulation drift on the last point.
	pts[len(pts)-1].F = 1
	return CDF{points: pts}
}

// Points returns the CDF's steps in ascending X order.
func (c CDF) Points() []Point { return c.points }

// Empty reports whether the CDF has no mass.
func (c CDF) Empty() bool { return len(c.points) == 0 }

// At returns P[V <= x]. For x below the smallest value it returns 0.
func (c CDF) At(x float64) float64 {
	i := sort.Search(len(c.points), func(i int) bool { return c.points[i].X > x })
	if i == 0 {
		return 0
	}
	return c.points[i-1].F
}

// Quantile returns the smallest X with F(X) >= q (0 < q <= 1). It panics
// on an empty CDF or out-of-range q.
func (c CDF) Quantile(q float64) float64 {
	if c.Empty() {
		panic("stats: quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of range", q))
	}
	for _, p := range c.points {
		if p.F >= q-1e-12 {
			return p.X
		}
	}
	return c.points[len(c.points)-1].X
}

// Linear holds the result of a least-squares fit y = Slope*x + Intercept.
type Linear struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearRegression fits a line through (x[i], y[i]). It panics if the
// lengths differ or fewer than two points are given; a vertical-variance-
// free y yields R2 = 1 on an exact fit and 0 otherwise.
func LinearRegression(x, y []float64) Linear {
	if len(x) != len(y) {
		panic("stats: regression length mismatch")
	}
	if len(x) < 2 {
		panic("stats: regression needs at least two points")
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	var fit Linear
	if sxx == 0 {
		// Vertical line: undefined slope; report flat fit.
		fit.Slope = 0
		fit.Intercept = my
	} else {
		fit.Slope = sxy / sxx
		fit.Intercept = my - fit.Slope*mx
	}
	if syy == 0 {
		fit.R2 = 1
	} else {
		ssRes := syy - fit.Slope*sxy
		fit.R2 = 1 - ssRes/syy
	}
	return fit
}
