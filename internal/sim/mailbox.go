package sim

// Mailbox is an unbounded FIFO message queue between processes. Send never
// blocks; Recv blocks until a message is available. Messages are delivered
// in send order, and blocked receivers — process-shaped (Recv) and
// callback-shaped (RecvFn) alike — are served in arrival order.
//
// Mailboxes model point-to-point message delivery; transit latency is the
// sender's concern (wait, then Send, or use Kernel.After).
type Mailbox struct {
	k        *Kernel
	name     string
	queue    fifo[any]
	waiters  fifo[mboxWaiter]
	pending  map[*Proc]any
	sent     uint64
	received uint64
}

// mboxWaiter is one blocked receiver: a parked process or a delivery
// callback.
type mboxWaiter struct {
	p  *Proc
	fn func(v any)
}

// NewMailbox creates an empty mailbox.
func NewMailbox(k *Kernel, name string) *Mailbox {
	return &Mailbox{k: k, name: name, pending: make(map[*Proc]any)}
}

// Name returns the mailbox's name.
func (m *Mailbox) Name() string { return m.name }

// Len returns the number of queued (sent but not yet received) messages.
func (m *Mailbox) Len() int { return m.queue.len() }

// Sent returns the total number of messages sent.
func (m *Mailbox) Sent() uint64 { return m.sent }

// Received returns the total number of messages received.
func (m *Mailbox) Received() uint64 { return m.received }

// Send enqueues v, waking the longest-blocked receiver if any. It may be
// called from process context or from event callbacks.
func (m *Mailbox) Send(v any) {
	m.sent++
	if m.waiters.len() > 0 {
		w := m.waiters.pop()
		if w.p != nil {
			m.pending[w.p] = v
			m.k.Resume(w.p)
			return
		}
		// Deliver to the callback receiver through a same-instant event,
		// mirroring the wakeup a process receiver would get so both
		// shapes resume at identical (at, seq) positions.
		m.k.schedule(m.k.now, nil, func() {
			m.received++
			w.fn(v)
		})
		return
	}
	m.queue.push(v)
}

// Recv blocks p until a message is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	if m.queue.len() > 0 {
		m.received++
		return m.queue.pop()
	}
	m.waiters.push(mboxWaiter{p: p})
	p.park("recv " + m.name)
	v := m.pending[p]
	delete(m.pending, p)
	m.received++
	return v
}

// RecvFn delivers the next message to fn: immediately if one is queued,
// otherwise when a message arrives, FIFO with blocked process receivers.
// It is the fast-path equivalent of spawning a process that Recvs once —
// no goroutine round-trip per delivery.
func (m *Mailbox) RecvFn(fn func(v any)) {
	if m.queue.len() > 0 {
		m.received++
		fn(m.queue.pop())
		return
	}
	m.waiters.push(mboxWaiter{fn: fn})
}

// TryRecv returns (message, true) if one is queued, without blocking.
func (m *Mailbox) TryRecv() (any, bool) {
	if m.queue.len() == 0 {
		return nil, false
	}
	m.received++
	return m.queue.pop(), true
}
