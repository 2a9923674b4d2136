package sim

import "fmt"

// Proc is a simulated process: a coroutine the kernel resumes on the
// goroutine that called Run. Exactly one process runs at a time; all Proc
// methods must be called from the process's own body function.
type Proc struct {
	k    *Kernel
	name string
	id   int
	done bool
	// blocked says why the process is parked with no pending wake
	// event (waiting on a synchronization primitive or a Suspend), for
	// deadlock reporting; it is empty while running or on a timed wait.
	blocked string

	// The coroutine: the kernel resumes the process with next and
	// unwinds it with stop; the process parks with yield.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// ID returns the process's unique spawn-ordered identifier (1-based).
func (p *Proc) ID() int { return p.id }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc %d (%s)", p.id, p.name) }

// Wait suspends the process for d of virtual time. A zero wait yields to
// other events scheduled at the same instant.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic("sim: negative wait on " + p.name)
	}
	p.k.schedule(p.k.now+d, p, nil)
	p.park("")
}

// Suspend parks the process until an event callback resumes it via
// Kernel.Wake or Kernel.Resume. reason appears in deadlock diagnostics
// should the resume never arrive.
func (p *Proc) Suspend(reason string) {
	if reason == "" {
		reason = "suspended"
	}
	p.park(reason)
}

// park yields control to the kernel until some event resumes this process.
// reason, if non-empty, records why the process is blocked (for deadlock
// diagnostics); parks with a pending wake event pass "".
//
// yield reports false once the kernel has stopped the coroutine to
// unwind it (see Kernel.unwind); park then panics with procAbort so the
// process's stack and its defers unwind. A park reached during that
// unwind, e.g. from a deferred close, gets false at once and panics again.
func (p *Proc) park(reason string) {
	p.blocked = reason
	if !p.yield(struct{}{}) {
		panic(procAbort{})
	}
}

// exit is deferred around the process body: it retires the process and
// absorbs the procAbort panic of an unwinding park. Any other panic goes
// on up through the coroutine and out of the kernel's next call, on the
// goroutine that called Run.
func (p *Proc) exit() {
	p.done = true
	p.k.live--
	if r := recover(); r != nil {
		if _, ok := r.(procAbort); !ok {
			panic(r)
		}
	}
}
