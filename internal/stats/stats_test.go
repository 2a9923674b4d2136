package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 90: 4.6}
	for p, want := range cases {
		if got := Percentile(xs, p); !near(got, want) {
			t.Errorf("P%g = %g, want %g", p, got, want)
		}
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("CV of constant = %g", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Fatalf("CV of zeros = %g", got)
	}
	if CV([]float64{1, 100}) <= CV([]float64{49, 51}) {
		t.Fatal("bursty sample should have higher CV")
	}
}

func TestNewCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 10})
	if c.Empty() {
		t.Fatal("non-empty sample gave empty CDF")
	}
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %g", got)
	}
	if got := c.At(1); !near(got, 0.25) {
		t.Fatalf("At(1) = %g", got)
	}
	if got := c.At(2); !near(got, 0.75) {
		t.Fatalf("At(2) = %g", got)
	}
	if got := c.At(9.99); !near(got, 0.75) {
		t.Fatalf("At(9.99) = %g", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %g", got)
	}
	if got := c.At(1e12); got != 1 {
		t.Fatalf("At(inf) = %g", got)
	}
}

func TestWeightedCDF(t *testing.T) {
	// Two small requests of 100 bytes, one of 1MB: by count small is
	// 2/3; by bytes small is ~0.02%.
	values := []float64{100, 100, 1 << 20}
	counts := NewCDF(values)
	data := NewWeightedCDF(values, values)
	if got := counts.At(100); !near(got, 2.0/3) {
		t.Fatalf("count CDF At(100) = %g", got)
	}
	if got := data.At(100); got > 0.001 {
		t.Fatalf("data CDF At(100) = %g, want tiny", got)
	}
	if got := data.At(1 << 20); got != 1 {
		t.Fatalf("data CDF At(max) = %g", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %g", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %g", got)
	}
	if got := c.Quantile(0.01); got != 1 {
		t.Fatalf("Quantile(0.01) = %g", got)
	}
}

func TestCDFEdgeCases(t *testing.T) {
	if !NewCDF(nil).Empty() {
		t.Fatal("empty sample should give empty CDF")
	}
	zero := NewWeightedCDF([]float64{1, 2}, []float64{0, 0})
	if !zero.Empty() {
		t.Fatal("zero-weight CDF should be empty")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative weight should panic")
			}
		}()
		NewWeightedCDF([]float64{1}, []float64{-1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		NewWeightedCDF([]float64{1}, []float64{1, 2})
	}()
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		pts := c.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].F < pts[i-1].F {
				return false
			}
		}
		return pts[len(pts)-1].F == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAtMatchesDirectCountProperty(t *testing.T) {
	f := func(raw []uint16, probe uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		c := NewCDF(vals)
		var n int
		for _, v := range vals {
			if v <= float64(probe) {
				n++
			}
		}
		want := float64(n) / float64(len(vals))
		return math.Abs(c.At(float64(probe))-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearRegressionExactFit(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	fit := LinearRegression(x, y)
	if !near(fit.Slope, 2) || !near(fit.Intercept, 1) || !near(fit.R2, 1) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestLinearRegressionNoise(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 1, 4, 3, 6, 5}
	fit := LinearRegression(x, y)
	if fit.Slope <= 0 {
		t.Fatalf("slope = %g, want positive trend", fit.Slope)
	}
	if fit.R2 <= 0 || fit.R2 >= 1 {
		t.Fatalf("R2 = %g, want in (0,1)", fit.R2)
	}
}

func TestLinearRegressionDegenerate(t *testing.T) {
	fit := LinearRegression([]float64{2, 2, 2}, []float64{1, 5, 9})
	if fit.Slope != 0 || !near(fit.Intercept, 5) {
		t.Fatalf("vertical fit = %+v", fit)
	}
	flat := LinearRegression([]float64{1, 2, 3}, []float64{7, 7, 7})
	if !near(flat.Slope, 0) || !near(flat.Intercept, 7) || flat.R2 != 1 {
		t.Fatalf("flat fit = %+v", flat)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short input should panic")
			}
		}()
		LinearRegression([]float64{1}, []float64{1})
	}()
}

func TestPercentileMatchesSortProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			vals[i] = float64(v)
		}
		sort.Float64s(vals)
		// P0 and P100 are exactly min and max.
		return Percentile(vals, 0) == vals[0] && Percentile(vals, 100) == vals[len(vals)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
