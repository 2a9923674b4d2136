package faults

import (
	"strings"
	"testing"
	"time"
)

func plan(fs ...Fault) Plan { return Plan{Faults: fs} }

func TestValidateAcceptsCanonicalFaults(t *testing.T) {
	good := []Plan{
		{},
		plan(Fault{Kind: DiskFail, At: time.Second, IONode: 3}),
		plan(Fault{Kind: DiskFail, At: 0, Until: time.Second, IONode: 0}),
		plan(Fault{Kind: NodeCrash, At: time.Second, IONode: 15}),
		plan(Fault{Kind: Straggler, At: time.Second, IONode: 1, Factor: 4}),
		plan(Fault{Kind: ClientFlap, At: time.Second, Node: 7}),
		plan(Fault{Kind: ClientFlap, At: time.Second, Node: 0, Count: 5, Period: time.Second}),
		plan(Fault{Kind: ClientFlap, At: time.Second, Node: 0, Count: maxFlapCount, Period: time.Millisecond}),
		plan( // one of each, stacked
			Fault{Kind: DiskFail, At: time.Second, IONode: 0},
			Fault{Kind: NodeCrash, At: 2 * time.Second, IONode: 1},
			Fault{Kind: Straggler, At: 3 * time.Second, IONode: 2, Factor: 2},
			Fault{Kind: ClientFlap, At: 4 * time.Second, Node: 1}),
	}
	for i, p := range good {
		if err := p.Validate(16); err != nil {
			t.Errorf("plan %d rejected: %v", i, err)
		}
	}
}

func TestValidateRejectsMalformedFaults(t *testing.T) {
	bad := []struct {
		name string
		p    Plan
		want string
	}{
		{"unknown-kind", plan(Fault{Kind: "disk-melt", At: 0}), "unknown kind"},
		{"negative-at", plan(Fault{Kind: DiskFail, At: -time.Second}), "negative injection"},
		{"until-before-at", plan(Fault{Kind: DiskFail, At: 2 * time.Second, Until: time.Second}), "not after"},
		{"ionode-range", plan(Fault{Kind: DiskFail, IONode: 16}), "out of range"},
		{"ionode-negative", plan(Fault{Kind: NodeCrash, IONode: -1}), "out of range"},
		{"factor-on-disk", plan(Fault{Kind: DiskFail, Factor: 2}), "factor"},
		{"node-on-straggler", plan(Fault{Kind: Straggler, Factor: 2, Node: 3}), "client-flap"},
		{"straggler-factor-low", plan(Fault{Kind: Straggler, Factor: 1}), "need > 1"},
		{"flap-ionode", plan(Fault{Kind: ClientFlap, IONode: 2}), "I/O-node faults"},
		{"flap-negative-node", plan(Fault{Kind: ClientFlap, Node: -1}), "negative node"},
		{"flap-count-no-period", plan(Fault{Kind: ClientFlap, Count: 3}), "positive period"},
		{"flap-count-cap", plan(Fault{Kind: ClientFlap, Count: maxFlapCount + 1, Period: time.Millisecond}), "exceeds the cap"},
		{"flap-until", plan(Fault{Kind: ClientFlap, Until: time.Second}), "until"},
		{"double-crash", plan(
			Fault{Kind: NodeCrash, IONode: 0},
			Fault{Kind: NodeCrash, At: time.Second, IONode: 0}), "crashes twice"},
		{"all-crash", plan(
			Fault{Kind: NodeCrash, IONode: 0},
			Fault{Kind: NodeCrash, IONode: 1}), "must survive"},
	}
	for _, c := range bad {
		err := c.p.Validate(2)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestValidateWithoutTopologySkipsRangeChecks(t *testing.T) {
	p := plan(Fault{Kind: DiskFail, IONode: 4096})
	if err := p.Validate(0); err != nil {
		t.Errorf("shape-only validation rejected a large target: %v", err)
	}
	if err := p.Validate(16); err == nil {
		t.Error("topology validation accepted an out-of-range target")
	}
}

// TestPlanStringCanonical pins the canonical serialization ConfigKey
// hashes: stable, distinct per semantic change, empty for the healthy
// machine.
func TestPlanStringCanonical(t *testing.T) {
	if s := (Plan{}).String(); s != "" {
		t.Errorf("healthy plan serializes as %q, want empty", s)
	}
	cases := map[string]Plan{
		"disk-fail@1000000000,io=0": plan(Fault{Kind: DiskFail, At: time.Second, IONode: 0}),
		"disk-fail@1000000000-2000000000,io=0": plan(
			Fault{Kind: DiskFail, At: time.Second, Until: 2 * time.Second, IONode: 0}),
		"node-crash@1000000000,io=3": plan(Fault{Kind: NodeCrash, At: time.Second, IONode: 3}),
		"straggler@1000000000,io=1,x4": plan(
			Fault{Kind: Straggler, At: time.Second, IONode: 1, Factor: 4}),
		"client-flap@1000000000,node=2,period=500000000,count=5": plan(
			Fault{Kind: ClientFlap, At: time.Second, Node: 2, Period: 500 * time.Millisecond, Count: 5}),
		"disk-fail@0,io=0;node-crash@1000000000,io=1": plan(
			Fault{Kind: DiskFail, At: 0, IONode: 0},
			Fault{Kind: NodeCrash, At: time.Second, IONode: 1}),
	}
	seen := map[string]bool{}
	for want, p := range cases {
		if got := p.String(); got != want {
			t.Errorf("plan serializes as %q, want %q", got, want)
		}
		if seen[p.String()] {
			t.Errorf("duplicate serialization %q", p.String())
		}
		seen[p.String()] = true
	}
}

func TestFlapCountDefaults(t *testing.T) {
	if got := (Fault{Kind: ClientFlap}).FlapCount(); got != 1 {
		t.Errorf("zero Count flaps %d times, want 1", got)
	}
	if got := (Fault{Kind: ClientFlap, Count: 4}).FlapCount(); got != 4 {
		t.Errorf("Count 4 flaps %d times", got)
	}
}
