package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be signal rather than one unlucky sample.
const minBeyond = 10

// tailLadder is the percentile ladder a tail falls back along when a
// run collected too few samples for the workload's preferred tail.
var tailLadder = []float64{0.99, 0.90, 0.75, 0.50}

// percentile returns the nearest-rank q-quantile of sorted samples and
// how many samples lie above it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// latency is a timing summary: the median and a tail percentile with
// at least minBeyond samples above it, plus the sample count.
type latency struct {
	N     int
	P50   float64
	TailQ float64 // the percentile Tail reports, e.g. 0.99
	Tail  float64
}

// summarize sorts samples and reports the median and the preferred
// tail percentile want. When fewer than minBeyond samples lie above
// want, the tail steps down tailLadder to the highest percentile that
// has them (the median at worst).
func summarize(samples []float64, want float64) latency {
	s := sortedCopy(samples)
	l := latency{N: len(s)}
	l.P50, _ = percentile(s, 0.50)
	l.TailQ = 0.50
	for _, q := range append([]float64{want}, tailLadder...) {
		if q > want {
			continue
		}
		if _, beyond := percentile(s, q); beyond >= minBeyond || q == 0.50 {
			l.TailQ = q
			break
		}
	}
	l.Tail, _ = percentile(s, l.TailQ)
	return l
}

// tailName renders a tail percentile as its metric suffix ("p99").
func tailName(q float64) string { return fmt.Sprintf("p%d", int(math.Round(q*100))) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.50)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
