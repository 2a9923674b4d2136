package experiments

import (
	"regexp"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/disk"
	"paragonio/internal/faults"
	"paragonio/internal/mesh"
)

// TestConfigKeySemanticEquality pins that configurations meaning the
// same run hash equal: literally identical configs, and equal-valued
// configs behind distinct pointers.
func TestConfigKeySemanticEquality(t *testing.T) {
	base := core.Config{Seed: 1}
	if ConfigKey(base, "eth/C") != ConfigKey(base, "eth/C") {
		t.Fatal("identical configs hash differently")
	}
	// Distinct pointers to equal-valued configs are the same run.
	a, b := base, base
	a.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	b.Tiers.IONode = &cache.Config{WriteBehind: true, ReadAhead: 4, CapacityBytes: 32 << 20}
	if ConfigKey(a, "eth/C") != ConfigKey(b, "eth/C") {
		t.Error("equal-valued cache configs behind distinct pointers hash differently")
	}
	// An empty fault plan is the healthy machine: no serialization tail.
	c := base
	c.Faults = faults.Plan{Faults: []faults.Fault{}}
	if ConfigKey(base, "eth/C") != ConfigKey(c, "eth/C") {
		t.Error("empty (non-nil) fault plan hashes differently from the healthy machine")
	}
}

// TestConfigKeyFieldSensitivity mutates every run-relevant field — and
// the app identity — one at a time, and requires each mutation to change
// the hash and all hashes to be pairwise distinct.
func TestConfigKeyFieldSensitivity(t *testing.T) {
	base := core.Config{Seed: 1}
	mutations := []struct {
		name string
		cfg  core.Config
		app  string
	}{
		{"seed", core.Config{Seed: 2}, "eth/C"},
		{"nodes", core.Config{Seed: 1, Nodes: 128}, "eth/C"},
		{"ionodes", core.Config{Seed: 1, IONodes: 32}, "eth/C"},
		{"stripe", core.Config{Seed: 1, StripeUnit: 128 << 10}, "eth/C"},
		{"sample", core.Config{Seed: 1, SampleInterval: time.Second}, "eth/C"},
		{"mesh", core.Config{Seed: 1, Mesh: func() *mesh.Config { c := mesh.DefaultConfig(); c.Rows = 32; return &c }()}, "eth/C"},
		{"disk", core.Config{Seed: 1, Disk: func() *disk.Params { d := disk.DefaultParams(); d.DataDisks = 8; return &d }()}, "eth/C"},
		{"ionode-tier", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true}}}, "eth/C"},
		{"ionode-ra", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, ReadAhead: 4}}}, "eth/C"},
		{"ionode-cap", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, CapacityBytes: 1 << 20}}}, "eth/C"},
		{"ionode-deadline", core.Config{Seed: 1, Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, FlushDeadline: 100 * time.Millisecond}}}, "eth/C"},
		{"client-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{}}}, "eth/C"},
		{"client-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{CapacityBytes: 8 << 20}}}, "eth/C"},
		{"client-ttl", core.Config{Seed: 1, Tiers: cache.Tiers{Client: &cache.ClientConfig{LeaseTTL: 10 * time.Minute}}}, "eth/C"},
		{"log-tier", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{}}}, "eth/C"},
		{"log-seg", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{SegmentBytes: 256 << 10}}}, "eth/C"},
		{"log-cap", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{CapacityBytes: 32 << 20}}}, "eth/C"},
		{"log-drain", core.Config{Seed: 1, Tiers: cache.Tiers{Log: &cache.LogConfig{DrainDeadline: 10 * time.Millisecond}}}, "eth/C"},
		{"fault-disk", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-disk-io1", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, IONode: 1}}}}, "eth/C"},
		{"fault-disk-later", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: 2 * time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-disk-repair", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.DiskFail, At: time.Second, Until: 3 * time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-crash", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.NodeCrash, At: time.Second, IONode: 0}}}}, "eth/C"},
		{"fault-straggler", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 4}}}}, "eth/C"},
		{"fault-straggler-x8", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.Straggler, At: time.Second, IONode: 0, Factor: 8}}}}, "eth/C"},
		{"fault-flap", core.Config{Seed: 1, Faults: faults.Plan{Faults: []faults.Fault{
			{Kind: faults.ClientFlap, At: time.Second, Node: 1, Count: 3, Period: time.Second}}}}, "eth/C"},
		{"app", base, "prism/C"},
	}
	hexKey := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]string{ConfigKey(base, "eth/C"): "base"}
	for _, m := range mutations {
		k := ConfigKey(m.cfg, m.app)
		if !hexKey.MatchString(k) {
			t.Fatalf("%s: key %q is not 16 hex digits", m.name, k)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q hashes identically to %q (key %s)", m.name, prev, k)
		}
		seen[k] = m.name
	}
}

// TestSuiteKeyGuardsMutation pins the singleflight guard: mutating a
// Suite's configuration after a run is cached must not serve the stale
// result for the new configuration.
func TestSuiteKeyGuardsMutation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	s := NewSuite(1)
	first, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	s.Seed = 2 // the latent bug: before ConfigKey keying, this served the seed-1 run
	second, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatal("mutated Suite served the cached result of the old configuration")
	}
	if first.Trace.Digest() == second.Trace.Digest() {
		t.Error("seed change produced an identical trace — mutation not reflected in the run")
	}
}
