package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (program code is never instrumented).
// Spans of one operation share Op; Parent links a call to the span that
// caused it (0 for an operation's root).
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Op      int64   `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer started
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	t0   time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	all  []span
	self map[string]time.Duration // summed duration by span name
	cnt  map[string]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}, cnt: map[string]int{}}
}

// newOp allocates an operation id (0 when untraced).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// begin opens a span and returns the function that closes it together
// with the span's id, for children to name as their parent.
func (t *tracer) begin(op, parent int64, name string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.ids.Add(1)
	start := time.Now()
	return id, func() {
		stop := time.Now()
		t.mu.Lock()
		t.all = append(t.all, span{
			ID: id, Parent: parent, Op: op, Name: name,
			StartUS: float64(start.Sub(t.t0).Nanoseconds()) / 1e3,
			EndUS:   float64(stop.Sub(t.t0).Nanoseconds()) / 1e3,
		})
		t.self[name] += stop.Sub(start)
		t.cnt[name]++
		t.mu.Unlock()
	}
}

// meanMS returns the mean duration in milliseconds of spans called
// name (0 when none were recorded).
func (t *tracer) meanMS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cnt[name] == 0 {
		return 0
	}
	return float64(t.self[name].Nanoseconds()) / 1e6 / float64(t.cnt[name])
}

// totalOf returns the summed duration of spans called name.
func (t *tracer) totalOf(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.self[name]
}

// write dumps every span as one JSON line, after a header line holding
// the environment block.
func (t *tracer) write(path string, env map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.all {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
