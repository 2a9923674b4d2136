package sim

import (
	"testing"
	"time"
)

// The fast-path tests pin the contract that makes serveIONodeFn-style
// conversions safe: a callback-shaped UseFn must produce the same virtual
// timing and the same statistics as the process-shaped Use it replaces.

// TestUseFnMatchesUse runs the same contended-server workload twice —
// once with processes calling Use, once with callback holders — and
// requires identical completion times and resource statistics.
func TestUseFnMatchesUse(t *testing.T) {
	const n = 5
	hold := 2 * time.Second

	runProc := func() (Time, ResourceStats) {
		k := NewKernel()
		r := NewResource(k, "srv", 1)
		var last Time
		for i := 0; i < n; i++ {
			k.Spawn("u", func(p *Proc) {
				r.Use(p, hold)
				last = p.Now()
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last, r.Stats()
	}

	runFn := func() (Time, ResourceStats) {
		k := NewKernel()
		r := NewResource(k, "srv", 1)
		var last Time
		for i := 0; i < n; i++ {
			k.After(0, func() {
				r.UseFn(func() Time { return hold }, func() { last = k.Now() })
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last, r.Stats()
	}

	procLast, procStats := runProc()
	fnLast, fnStats := runFn()
	if procLast != Time(n)*Time(hold) {
		t.Fatalf("proc run finished at %v, want %v", procLast, Time(n)*Time(hold))
	}
	if fnLast != procLast {
		t.Errorf("UseFn finished at %v, Use at %v", fnLast, procLast)
	}
	if fnStats != procStats {
		t.Errorf("stats differ:\n  UseFn: %+v\n  Use:   %+v", fnStats, procStats)
	}
}

// TestUseFnFIFOWithProcs interleaves process and callback acquirers and
// checks grants happen in arrival order regardless of shape.
func TestUseFnFIFOWithProcs(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1)
	var order []string
	// Arrivals at t=0 in order: proc p0, callback c1, proc p2, callback c3.
	k.Spawn("p0", func(p *Proc) {
		r.Acquire(p)
		p.Wait(time.Second)
		order = append(order, "p0")
		r.Release(p)
	})
	k.After(0, func() {
		r.UseFn(func() Time { return time.Second }, func() { order = append(order, "c1") })
	})
	k.Spawn("p2", func(p *Proc) {
		r.Use(p, time.Second)
		order = append(order, "p2")
	})
	k.After(0, func() {
		r.UseFn(func() Time { return time.Second }, func() { order = append(order, "c3") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0", "c1", "p2", "c3"}
	if len(order) != len(want) {
		t.Fatalf("completions = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions = %v, want %v (FIFO broken across shapes)", order, want)
		}
	}
	if k.Now() != 4*Time(time.Second) {
		t.Errorf("finished at %v, want 4s", k.Now())
	}
}

// TestUseFnPricesHoldAtGrantTime verifies hold() runs when the slot is
// granted, not when UseFn is called — the property that keeps
// state-dependent service costs (disk head position) in FIFO order.
func TestUseFnPricesHoldAtGrantTime(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "srv", 1)
	var pricedAt []Time
	k.After(0, func() {
		r.UseFn(func() Time { pricedAt = append(pricedAt, k.Now()); return 3 * Time(time.Second) }, nil)
		r.UseFn(func() Time { pricedAt = append(pricedAt, k.Now()); return time.Duration(0) }, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pricedAt) != 2 {
		t.Fatalf("hold priced %d times, want 2", len(pricedAt))
	}
	if pricedAt[0] != 0 || pricedAt[1] != 3*Time(time.Second) {
		t.Errorf("priced at %v, want [0s 3s]", pricedAt)
	}
}
