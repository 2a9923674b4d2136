package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed: summarize must sort
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := sortedCopy(seq(10))
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{{0.5, 5, 5}, {0.9, 9, 1}, {0.99, 10, 0}, {0.01, 1, 9}} {
		v, beyond := percentile(s, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("q=%v: got %v (%d beyond), want %v (%d beyond)", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty: got %v, %d", v, beyond)
	}
}

func TestSummarizeTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		want  float64
		tailQ float64
		tail  float64
	}{
		{1000, 0.99, 0.99, 990}, // exactly 10 samples above p99
		{999, 0.99, 0.90, 900},  // 9 above p99: step down to p90
		{100, 0.90, 0.90, 90},
		{99, 0.90, 0.75, 75},
		{40, 0.75, 0.75, 30},
		{12, 0.90, 0.50, 6}, // too few for any tail: the median
		{400, 0.90, 0.90, 360},
	} {
		l := summarize(seq(c.n), c.want)
		if l.N != c.n || l.TailQ != c.tailQ || l.Tail != c.tail {
			t.Errorf("n=%d want p%v: got N=%d tail p%v=%v, want p%v=%v", c.n, c.want*100, l.N, l.TailQ*100, l.Tail, c.tailQ*100, c.tail)
		}
		if _, beyond := percentile(sortedCopy(seq(c.n)), l.TailQ); beyond < minBeyond && l.TailQ != 0.5 {
			t.Errorf("n=%d: tail p%v has only %d samples beyond", c.n, l.TailQ*100, beyond)
		}
	}
	if got := summarize(seq(101), 0.5).P50; got != 51 {
		t.Errorf("median of 1..101 = %v, want 51", got)
	}
	if tailName(0.99) != "p99" || tailName(0.75) != "p75" {
		t.Errorf("tailName: %s %s", tailName(0.99), tailName(0.75))
	}
}
