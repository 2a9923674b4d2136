package sim

import "fmt"

// Proc is a simulated process: a goroutine that runs under the kernel's
// strict handoff protocol. Exactly one process runs at a time; all Proc
// methods must be called from the process's own body function.
type Proc struct {
	k      *Kernel
	name   string
	id     int
	resume chan struct{}
	done   bool
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
// While the kernel aborts a cancelled run, park panics with procAbort
// instead of blocking: the resume that woke the process was the abort
// sweep, and any park reached afterwards (e.g. from a deferred close
// running during the unwind) must not re-enter the handoff protocol.
func (p *Proc) park(reason string) {
	if p.k.aborting {
		panic(procAbort{})
	}
	if reason != "" {
		p.k.blocked[p] = reason
	}
	p.k.parked <- struct{}{}
	<-p.resume
	if p.k.aborting {
		panic(procAbort{})
	}
}
