package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestCancelAbortsRun installs a context-backed cancellation check and
// cancels after the ticker's tenth wait, then requires Run to return the
// context error with every process unwound: the one suspended with no
// wake pending and the one parked on a pending timed wait both run their
// defers, in spawn order, and no live process is left.
func TestCancelAbortsRun(t *testing.T) {
	k := NewKernel()
	ctx, cancel := context.WithCancel(context.Background())
	k.SetCancel(ctx.Err)

	unwound := make([]string, 0, 2)
	// Three processes: one suspended with no wake ever scheduled, one
	// ticking forever on timed waits, one that finishes before the
	// cancel.
	k.Spawn("suspended", func(p *Proc) {
		defer func() { unwound = append(unwound, "suspended") }()
		p.Suspend("never woken")
	})
	k.Spawn("ticker", func(p *Proc) {
		defer func() { unwound = append(unwound, "ticker") }()
		for waits := 1; ; waits++ {
			p.Wait(time.Millisecond)
			if waits == 10 {
				cancel()
			}
		}
	})
	k.Spawn("done-early", func(p *Proc) {
		p.Wait(time.Microsecond)
	})

	err := k.Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d after abort, want 0", k.LiveProcs())
	}
	if want := []string{"suspended", "ticker"}; fmt.Sprint(unwound) != fmt.Sprint(want) {
		t.Errorf("unwound defers = %v, want %v (spawn order)", unwound, want)
	}
	if now := k.Now(); now != 10*time.Millisecond {
		t.Errorf("aborted at t=%v, want 10ms (the batch after the tenth wait)", now)
	}
}

// TestCancelBeforeRun cancels the context before Run starts: the first
// poll aborts, and processes that never ran still unwind.
func TestCancelBeforeRun(t *testing.T) {
	k := NewKernel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k.SetCancel(ctx.Err)
	ran := false
	k.Spawn("never-runs", func(p *Proc) { ran = true })
	if err := k.Run(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run() = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("process body ran despite pre-cancelled context")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs() = %d, want 0", k.LiveProcs())
	}
}

// TestNoCancelCheckUnchanged pins that a kernel without SetCancel runs to
// completion exactly as before (the poll is skipped entirely).
func TestNoCancelCheckUnchanged(t *testing.T) {
	k := NewKernel()
	n := 0
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(time.Microsecond)
			n++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("worker ran %d iterations, want 100", n)
	}
}

// TestFailedRunsReleaseGoroutines requires the goroutine count to return
// to its baseline after deadlocked and after cancelled runs: Run unwinds
// every blocked process instead of leaving each one holding a goroutine,
// which in a long-running service would leak per failed request.
func TestFailedRunsReleaseGoroutines(t *testing.T) {
	const runs, procs = 10, 5
	base := runtime.NumGoroutine()
	for i := 0; i < runs; i++ {
		k := NewKernel()
		for j := 0; j < procs; j++ {
			k.Spawn("stuck", func(p *Proc) { p.Suspend("never woken") })
		}
		var dl *DeadlockError
		if err := k.Run(); !errors.As(err, &dl) || len(dl.Blocked) != procs {
			t.Fatalf("Run() = %v, want a deadlock with %d blocked", err, procs)
		}
		if k.LiveProcs() != 0 {
			t.Fatalf("LiveProcs() = %d after deadlock, want 0", k.LiveProcs())
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after %d deadlocked runs, baseline %d", n, runs, base)
	}
	cancelledRun := func() error {
		k := NewKernel()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		k.SetCancel(ctx.Err)
		for j := 0; j < procs; j++ {
			k.Spawn("ticker", func(p *Proc) {
				for {
					p.Wait(time.Millisecond)
					cancel()
				}
			})
		}
		return k.Run()
	}
	for i := 0; i < runs; i++ {
		if err := cancelledRun(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run() = %v, want context.Canceled", err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after %d cancelled runs, baseline %d", n, runs, base)
	}
}
