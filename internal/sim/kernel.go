// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock by processing a time-ordered event
// queue. Simulated activities are written as ordinary Go functions running
// in "processes": coroutines (iter.Pull) that the kernel resumes on the
// goroutine that called Run, so exactly one process executes at a time
// and runs are bit-reproducible. Processes block on virtual-time waits
// (Proc.Wait), on the two synchronization primitives (Resource, Barrier),
// and on Proc.Suspend, which an event callback ends with Kernel.Resume or
// Kernel.Wake; the kernel resumes them when the corresponding event fires.
//
// Events scheduled for the same instant are processed in scheduling order
// (FIFO by sequence number), which — together with the single-runner
// handoff — makes the simulation fully deterministic.
//
// Two dispatch paths exist. Process resumption is a coroutine switch into
// the process and another back when it parks. Callback events run inline
// in the kernel loop with no switch at all; Resource.UseFn is the
// callback-shaped twin of Resource.Use, so hot non-process-shaped work
// (the PFS I/O-node service path) can take the fast path. See
// docs/PERFORMANCE.md for the cost model.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time = time.Duration

// maxRetainedEvents caps the event storage (queue backing array and the
// same-timestamp batch buffer) a kernel keeps after its queue drains, so
// a kernel that peaked at hundreds of thousands of pending events does
// not pin that memory for its remaining lifetime.
const maxRetainedEvents = 4096

// event is a scheduled occurrence: either the resumption of a parked
// process or an inline callback. Keeping the struct at five words
// matters — every heap sift copies it.
type event struct {
	at   Time
	seq  uint64
	proc *Proc  // resume this process, if non-nil
	fn   func() // otherwise run this callback inline
}

// Kernel is a discrete-event simulation engine. A Kernel must be driven
// from a single goroutine; processes it spawns are coordinated internally.
//
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now   Time
	queue eventHeap
	seq   uint64

	procSeq   int
	live      int // processes spawned and not yet finished
	processed uint64

	// procs holds spawned processes in spawn order, finished ones
	// included until Spawn compacts them away. Deadlock diagnosis and
	// unwinding scan it.
	procs []*Proc

	// batch is scratch for same-timestamp dispatch runs (see runBatch).
	batch []event

	// cancelCheck, when non-nil, is polled between dispatch batches. A
	// non-nil return aborts the run: every live process is unwound
	// deterministically and Run returns the error. See SetCancel.
	cancelCheck func() error
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// EventsProcessed returns the number of events the kernel has dispatched.
func (k *Kernel) EventsProcessed() uint64 { return k.processed }

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.live }

// schedule enqueues an event at the given absolute time.
func (k *Kernel) schedule(at Time, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, k.now))
	}
	k.seq++
	k.queue.push(event{at: at, seq: k.seq, proc: p, fn: fn})
}

// After schedules fn to run at Now()+d. It may be called from process
// context or from event callbacks.
func (k *Kernel) After(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.schedule(k.now+d, nil, fn)
}

// Spawn creates a new process executing body and schedules it to start at
// the current virtual time. It may be called before Run or from within a
// running process or callback.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	k.procSeq++
	p := &Proc{k: k, name: name, id: k.procSeq}
	p.start(body)
	k.live++
	k.schedule(k.now, p, nil)
	// Drop finished processes instead of growing once at most half are
	// live, so the slice stays proportional to the live set.
	if len(k.procs) == cap(k.procs) && 2*k.live <= len(k.procs) {
		k.procs = slices.DeleteFunc(k.procs, func(q *Proc) bool { return q.done })
	}
	k.procs = append(k.procs, p)
	return p
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on synchronization primitives.
type DeadlockError struct {
	Now     Time
	Blocked []string // "proc-name: reason", sorted
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d process(es) blocked: %v",
		e.Now, len(e.Blocked), e.Blocked)
}

// deadlockError builds the diagnosis for a drained queue with live
// processes still blocked.
func (k *Kernel) deadlockError() *DeadlockError {
	var blocked []string
	for _, p := range k.procs {
		if !p.done && p.blocked != "" {
			blocked = append(blocked, p.name+": "+p.blocked)
		}
	}
	sort.Strings(blocked)
	return &DeadlockError{Now: k.now, Blocked: blocked}
}

// SetCancel installs a cancellation check the run loop polls between
// dispatch batches. The first non-nil error aborts the run: pending
// events are dropped, every live process is unwound in spawn order (its
// deferred functions run), and Run returns the error. The canonical
// check wraps a context.Context: k.SetCancel(ctx.Err). A nil check (the default)
// disables polling; runs that never cancel are unaffected either way —
// the check runs between batches, never between events of one instant,
// so it cannot perturb event order.
func (k *Kernel) SetCancel(check func() error) {
	k.cancelCheck = check
}

// checkCancel polls the installed cancellation check.
func (k *Kernel) checkCancel() error {
	if k.cancelCheck == nil {
		return nil
	}
	return k.cancelCheck()
}

// procAbort is the sentinel a parked process panics with while the
// kernel unwinds it; the process's exit recovers it.
type procAbort struct{}

// unwind retires every live process in spawn order and drops pending
// events. Stopping a process's coroutine makes its park panic with
// procAbort, so its stack, and any defers on it, unwind before the next
// process is stopped; a process that never started does not run its
// body. Run unwinds after a cancellation or a deadlock, so no process is
// left holding its goroutine. The kernel is not reusable afterwards.
func (k *Kernel) unwind() {
	// A defer that spawns starts a fresh procs slice; sweep it next.
	for len(k.procs) > 0 {
		procs := k.procs
		k.procs = nil
		for _, p := range procs {
			if p.done {
				continue
			}
			p.stop()
			if !p.done { // stopped before its first dispatch
				p.done = true
				k.live--
			}
		}
	}
	k.queue.ev = nil
	k.trim()
}

// Run processes events until the queue is empty. It returns a
// *DeadlockError if any spawned process is still blocked when the queue
// drains, the cancellation error if an installed SetCancel check fired,
// and nil otherwise. In both error cases every live process is unwound
// (see unwind) before Run returns.
//
// A process body that panics with anything other than the kernel's own
// unwind sentinel makes Run panic with the same value, on the caller's
// goroutine.
func (k *Kernel) Run() error {
	for k.queue.len() > 0 {
		if err := k.checkCancel(); err != nil {
			k.unwind()
			return err
		}
		k.runBatch(k.queue.min().at)
	}
	k.trim()
	if k.live > 0 {
		err := k.deadlockError()
		k.unwind()
		return err
	}
	return nil
}

// runBatch advances the clock to at and dispatches, in sequence order,
// every event already queued for that instant. Draining the instant in
// one pass amortizes heap fix-ups: pops happen back to back while the
// root region is hot, and events the batch itself schedules (which carry
// higher sequence numbers, including same-instant wakeups) sift against
// the heap once instead of racing each dispatch. Exact (at, seq) order is
// preserved: batched events hold the smallest sequence numbers at this
// instant, and later arrivals are picked up by the next batch.
func (k *Kernel) runBatch(at Time) {
	batch := k.batch[:0]
	for k.queue.len() > 0 && k.queue.min().at == at {
		batch = append(batch, k.queue.pop())
	}
	k.now = at
	for i := range batch {
		k.processed++
		if p := batch[i].proc; p != nil {
			k.dispatch(p)
		} else if fn := batch[i].fn; fn != nil {
			fn()
		}
		batch[i] = event{} // drop proc/fn references held by the scratch buffer
	}
	k.batch = batch[:0]
}

// trim releases oversized event storage once a run completes.
func (k *Kernel) trim() {
	if cap(k.queue.ev) > maxRetainedEvents {
		k.queue.ev = nil
	}
	if cap(k.batch) > maxRetainedEvents {
		k.batch = nil
	}
}

// dispatch switches into p's coroutine and returns when p parks or
// finishes.
func (k *Kernel) dispatch(p *Proc) {
	p.blocked = ""
	p.next()
}

// Resume schedules a process parked with Proc.Suspend to continue at the
// current instant, as a new event. Synchronization primitives release
// their waiters this way.
func (k *Kernel) Resume(p *Proc) {
	k.schedule(k.now, p, nil)
}

// Wake resumes a process parked with Proc.Suspend inline, within the
// current event's dispatch position. Unlike Resume it adds no event: the
// process continuation nests inside the waking event exactly as if the
// process itself had been executing it, which is what keeps a
// callback-shaped completion bit-identical to the process-shaped code it
// replaces. It must be called from an event callback, never from process
// context.
func (k *Kernel) Wake(p *Proc) {
	k.dispatch(p)
}
