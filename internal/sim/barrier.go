package sim

import "fmt"

// Barrier synchronizes a fixed group of n parties: each caller of Await
// (process-shaped) or AwaitFn (callback-shaped) blocks until all n have
// arrived, then all are released at the same virtual instant. The barrier
// is cyclic and may be reused for successive phases.
type Barrier struct {
	k       *Kernel
	name    string
	n       int
	arrived []barWaiter
	epochs  uint64
	// waitTotal accumulates, across all epochs, the time each party
	// spent waiting at the barrier (skew cost).
	waitTotal Time
	arriveAt  map[*Proc]Time
}

// barWaiter is one party waiting at the barrier: a parked process or a
// release callback, with its arrival time.
type barWaiter struct {
	p  *Proc
	fn func()
	at Time
}

// NewBarrier creates a barrier for a party of n processes (n >= 1).
func NewBarrier(k *Kernel, name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier party must be >= 1")
	}
	return &Barrier{k: k, name: name, n: n, arriveAt: make(map[*Proc]Time)}
}

// Name returns the barrier's name.
func (b *Barrier) Name() string { return b.name }

// Party returns the number of processes the barrier synchronizes.
func (b *Barrier) Party() int { return b.n }

// Epochs returns how many times the barrier has completed.
func (b *Barrier) Epochs() uint64 { return b.epochs }

// WaitTotal returns the accumulated skew time spent blocked at the
// barrier, summed over all processes and epochs.
func (b *Barrier) WaitTotal() Time { return b.waitTotal }

// Await blocks p until all n parties have arrived for this epoch.
func (b *Barrier) Await(p *Proc) {
	if _, dup := b.arriveAt[p]; dup {
		panic(fmt.Sprintf("sim: %s awaited barrier %s twice in one epoch", p, b.name))
	}
	b.arriveAt[p] = b.k.now
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, barWaiter{p: p, at: b.k.now})
		p.park("barrier " + b.name)
		return
	}
	b.release()
	delete(b.arriveAt, p)
}

// AwaitFn registers a callback-shaped party: fn runs when all n parties
// have arrived. A non-final arrival is released through a same-instant
// event, like a process wakeup; the final arrival's fn runs inline, like
// the final Await caller continuing past the barrier. It is the fast-path
// equivalent of a process that Awaits once — no goroutine round-trip.
func (b *Barrier) AwaitFn(fn func()) {
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, barWaiter{fn: fn, at: b.k.now})
		return
	}
	b.release()
	if fn != nil {
		fn()
	}
}

// release completes the epoch: every earlier arrival is woken at the
// current instant and charged its skew time.
func (b *Barrier) release() {
	b.epochs++
	for i, w := range b.arrived {
		b.waitTotal += b.k.now - w.at
		if w.p != nil {
			delete(b.arriveAt, w.p)
			b.k.Resume(w.p)
		} else {
			fn := w.fn
			b.k.schedule(b.k.now, nil, fn)
		}
		b.arrived[i] = barWaiter{}
	}
	b.arrived = b.arrived[:0]
}
