package pfs

import (
	"testing"
	"time"

	"paragonio/internal/sim"
)

// stripedRead is one unbuffered read of four stripe units from offset
// zero: with the default 64 KB unit over 16 I/O nodes it spans four
// consecutive I/O nodes, so xfer serves the lowest one on the client's
// own leg and fans out the other three.
func stripedRead(r *testRig) (*file, int64) {
	return r.fs.lookup("striped", true), 4 * r.fs.cfg.StripeUnit
}

// TestStripedJoin runs the same striped read twice with some I/O nodes
// held busy from t=0, and requires the read to return exactly when its
// slowest leg releases its I/O node.
//   - legs-first: the client's own leg queues behind a 3 s holder, so
//     every fan-out leg is done before the client reaches the join and
//     it never parks.
//   - client-first: the fan-out legs queue behind 1, 2 and 3 s holders,
//     so the client parks on the join, is resumed by the first two legs
//     with work still out, re-parks, and leaves on the last.
func TestStripedJoin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		holds [4]time.Duration // per leg; leg 0 is the client's own
	}{
		{"legs-first", [4]time.Duration{3 * time.Second, 0, 0, 0}},
		{"client-first", [4]time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			f, size := stripedRead(r)
			legs := r.fs.chunksByIONode(f, 0, size)
			if len(legs) != 4 {
				t.Fatalf("request spans %d I/O nodes, want 4", len(legs))
			}
			slowest := 0
			for i, leg := range legs {
				if tc.holds[i] > tc.holds[slowest] {
					slowest = i
				}
				if d := tc.holds[i]; d > 0 {
					r.fs.ios[leg.io].res.UseFn(func() sim.Time { return d }, nil)
				}
			}
			var done sim.Time
			r.k.Spawn("client", func(p *sim.Proc) {
				r.fs.xfer(p, 0, f, 0, size, false)
				done = p.Now()
			})
			r.run(t)
			// The slowest leg queued behind its holder, so its I/O node
			// was held without a gap from t=0 until that leg released it.
			want := r.fs.ios[legs[slowest].io].res.Stats().TotalHold
			if want <= tc.holds[slowest] {
				t.Fatalf("slowest leg's node held %v, want more than its %v holder", want, tc.holds[slowest])
			}
			if done != want {
				t.Fatalf("read returned at %v, want %v (slowest leg's release)", done, want)
			}
		})
	}
}

// TestStripedJoinAllocs bounds the allocations of one uncontended
// four-node striped read, client process included. The join is one
// state word captured by one shared completion callback; a join that
// allocates a queue, a map or a closure per leg exceeds the bound.
//
// Measured with Go 1.24 at 30 allocations with each process a
// coroutine, whose spawn costs about 8 more than a goroutine did; the
// per-node chunk split (2) and the recycled UseFn hold records (0 per
// grant once warm) win those back. The former join (a message queue
// with a per-receiver map and a closure per leg) took 37–38 with
// goroutine processes.
func TestStripedJoinAllocs(t *testing.T) {
	const maxJoinAllocs = 34
	r := newRig(t)
	f, size := stripedRead(r)
	allocs := testing.AllocsPerRun(100, func() {
		r.k.Spawn("client", func(p *sim.Proc) { r.fs.xfer(p, 0, f, 0, size, false) })
		if err := r.k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per striped read", allocs)
	if allocs > maxJoinAllocs {
		t.Fatalf("%.1f allocs per striped read, want <= %d", allocs, maxJoinAllocs)
	}
}
