package experiments

import "testing"

// TestAdvisorReachesOracle pins the closed-loop acceptance bar: for
// every workload, the cache.Tiers the advisor derives from a trace —
// without peeking at any sweep — must reach at least 90% of the speedup
// of the oracle-best configuration found by the exhaustive cachewhatif
// and clientcache sweeps. A regression here means the advisor's
// triggers or merge rule drifted away from what the simulator rewards.
func TestAdvisorReachesOracle(t *testing.T) {
	s := NewSuite(1)
	art, err := advisorExp(s)
	if err != nil {
		t.Fatalf("advisor experiment: %v", err)
	}
	for _, loop := range advisorLoops() {
		pct, ok := art.Measured[loop.app+".pct_of_oracle"]
		if !ok {
			t.Fatalf("%s: pct_of_oracle metric missing", loop.app)
		}
		if pct < 90 {
			t.Errorf("%s: advised tiers reach %.1f%% of oracle-best speedup, want >= 90%%",
				loop.app, pct)
		}
		base := art.Paper[loop.app+"."+loop.headline]
		adv := art.Measured[loop.app+"."+loop.headline]
		if adv <= 0 || base <= 0 {
			t.Fatalf("%s: degenerate headline times base=%v advised=%v", loop.app, base, adv)
		}
		if adv >= base {
			t.Errorf("%s: advised run (%.2fs) not faster than no-cache baseline (%.2fs)",
				loop.app, adv, base)
		}
	}
}

// TestFlushPolicyDifferentiates pins the flush-policy study's finding:
// at the lazy shape (small batch, 75% watermark) the high-water + idle
// policy takes forced-flush stalls that the deadline policy at the same
// shape avoids, and the deadline policy's age-limited passes actually
// fire. If both columns read zero the workload no longer overruns the
// cache and the study is measuring nothing.
func TestFlushPolicyDifferentiates(t *testing.T) {
	s := NewSuite(1)
	art, err := flushPolicy(s)
	if err != nil {
		t.Fatalf("flushpolicy experiment: %v", err)
	}
	hwStalls := art.Paper["stalls"]
	dlStalls := art.Measured["stalls"]
	if hwStalls == 0 {
		t.Errorf("high-water + idle policy took no forced-flush stalls; the burst no longer overruns the cache")
	}
	if dlStalls >= hwStalls {
		t.Errorf("deadline policy stalls (%v) not below high-water + idle stalls (%v)",
			dlStalls, hwStalls)
	}
	if art.Measured["deadline_flushes"] == 0 {
		t.Errorf("deadline policy recorded no deadline-limited flusher passes")
	}
}
