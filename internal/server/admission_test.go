package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestAdmitterImmediateAndRelease(t *testing.T) {
	a := NewAdmitter(4, 2)
	var rels []func()
	for i := 0; i < 4; i++ {
		rel, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	if a.Free() != 0 {
		t.Fatalf("Free() = %d with every slot held, want 0", a.Free())
	}
	rels[0]() // release is idempotent
	for _, rel := range rels {
		rel()
	}
	if a.Free() != 4 {
		t.Fatalf("Free() = %d after releasing every slot, want 4", a.Free())
	}
}

func TestAdmitterQueueOverflow(t *testing.T) {
	a := NewAdmitter(1, 1)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fits in the queue…
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := a.Acquire(context.Background())
		if err != nil {
			t.Errorf("queued acquire failed: %v", err)
			return
		}
		r()
	}()
	// …wait until it is actually queued.
	for i := 0; ; i++ {
		if a.QueueLen() == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// …the second overflows.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire = %v, want ErrQueueFull", err)
	}
	rel()
	<-done
}

func TestAdmitterContextCancelWhileQueued(t *testing.T) {
	a := NewAdmitter(1, 4)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	for i := 0; ; i++ {
		if a.QueueLen() == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	rel()
	// The cancelled waiter must not have left the pool leaked or the
	// queue corrupted.
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatalf("pool unusable after cancelled waiter: %v", err)
	}
	rel2()
}

// TestAdmitterFIFORoundRobin pins the fairness contract: waiters are
// served FIFO within a client, and grants rotate round-robin across
// clients, so one client's backlog cannot convoy another's request.
func TestAdmitterFIFORoundRobin(t *testing.T) {
	a := NewAdmitter(1, 8)
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		order []string
		wg    sync.WaitGroup
	)
	enqueue := func(client, name string) {
		depth := a.QueueLen() + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := a.AcquireAs(context.Background(), client, KindInteractive)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			r()
		}()
		for i := 0; a.QueueLen() != depth; i++ {
			if i > 1000 {
				t.Fatalf("%s never queued", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Client A queues three requests before client B queues one.
	enqueue("A", "a1")
	enqueue("A", "a2")
	enqueue("A", "a3")
	enqueue("B", "b1")
	hold()
	wg.Wait()
	// One slot: each grant runs alone, so the order is the grant order.
	// B's single request goes right after A's head, not behind A's
	// whole backlog; A's own requests stay in arrival order.
	want := []string{"a1", "b1", "a2", "a3"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

// TestAdmitterConcurrent hammers the pool from many goroutines; under
// -race this pins the locking, and the final free count must equal the
// pool size.
func TestAdmitterConcurrent(t *testing.T) {
	a := NewAdmitter(4, 64)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel, err := a.Acquire(context.Background())
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
			rel()
		}(i)
	}
	wg.Wait()
	if a.Free() != 4 || a.QueueLen() != 0 {
		t.Errorf("pool state after drain: free=%d waiters=%d, want 4/0", a.Free(), a.QueueLen())
	}
}
