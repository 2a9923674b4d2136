package sim

import (
	"fmt"
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

// TestWakeNestsLikeProcessUse pins Kernel.Wake's contract: a process
// that hands its hold to UseFn, suspends, and is woken from the release
// callback continues at the same (at, seq) position as a process that
// acquires, waits and releases itself. Four processes contend for one
// slot and log their grants and completions; each completion queues a
// same-instant marker event, and a timer chain logs at the same
// instants. A continuation queued as a new event instead of nested
// would log its completion after the next holder's grant. The
// interleaving, the clock and the event count must all match.
func TestWakeNestsLikeProcessUse(t *testing.T) {
	const n = 4
	hold := time.Second

	run := func(use func(k *Kernel, r *Resource, p *Proc, granted func())) ([]string, uint64) {
		k := NewKernel()
		r := NewResource(k, "srv", 1)
		var log []string
		logf := func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
		}
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			k.Spawn(name, func(p *Proc) {
				use(k, r, p, func() { logf("%s granted", name) })
				logf("%s done", name)
				k.After(0, func() { logf("%s marker", name) })
			})
		}
		ticks := 0
		var tick func()
		tick = func() {
			logf("tick")
			if ticks++; ticks < n {
				k.After(hold, tick)
			}
		}
		k.After(hold, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log, k.EventsProcessed()
	}

	useLog, useEvents := run(func(_ *Kernel, r *Resource, p *Proc, granted func()) {
		r.Acquire(p)
		granted()
		p.Wait(hold)
		r.Release(p)
	})
	wakeLog, wakeEvents := run(func(k *Kernel, r *Resource, p *Proc, granted func()) {
		r.UseFn(func() Time { granted(); return hold }, func() { k.Wake(p) })
		p.Suspend("use")
	})
	if len(useLog) != 4*n {
		t.Fatalf("process run logged %d entries, want %d: %v", len(useLog), 4*n, useLog)
	}
	if fmt.Sprint(wakeLog) != fmt.Sprint(useLog) {
		t.Errorf("interleavings differ:\n  Wake: %v\n  Use:  %v", wakeLog, useLog)
	}
	if wakeEvents != useEvents {
		t.Errorf("events processed: Wake %d, Use %d", wakeEvents, useEvents)
	}
}
