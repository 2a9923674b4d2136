package experiments

import (
	"testing"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
)

// clientOnTiers is the pinned client-tier configuration of the
// client-on digest set: 8 MB/node with a lease TTL long enough that
// the tier actually serves hits in the pinned workloads.
func clientOnTiers() cache.Tiers {
	return cache.Tiers{Client: &cache.ClientConfig{
		CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute,
	}}
}

// TestClientCacheGoldenDigests pins the client-tier-on runs the same
// way the canonical runs are pinned: exact FNV-1a digests and event
// counts. The digests differ from the client-off
// goldens — the tier changes timings — but the event counts match them:
// caching changes when I/O happens, never what I/O the program asked for.
func TestClientCacheGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size paper workloads skipped in -short mode")
	}
	golden := []struct {
		key    string
		events int
		digest uint64
		run    func(cfg core.Config) (*core.Result, error)
	}{
		{"eth/C", 23768, 0xd7fb3b53679a18a6, func(cfg core.Config) (*core.Result, error) {
			return escat.RunOn(cfg, escat.Ethylene(), escat.VersionC())
		}},
		{"prism/C", 11396, 0x4f35ba3c6c1263b6, func(cfg core.Config) (*core.Result, error) {
			return prism.RunOn(cfg, prism.TestProblem(), prism.VersionC())
		}},
	}
	cfg := core.Config{Seed: 1, Tiers: clientOnTiers()}
	for _, g := range golden {
		res, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.key, err)
		}
		if n := res.Trace.Len(); n != g.events {
			t.Errorf("%s: %d events, golden %d", g.key, n, g.events)
		}
		if d := res.Trace.Digest(); d != g.digest {
			t.Errorf("%s: digest %#016x, golden %#016x", g.key, d, g.digest)
		}
		if res.Client.Hits == 0 {
			t.Errorf("%s: client tier on but zero hits", g.key)
		}
	}
}

// TestClientVariantsShareCanonicalRuns pins the singleflight contract:
// the tiers-off variant of the clientcache sweep is the canonical run
// object itself, not a re-execution.
func TestClientVariantsShareCanonicalRuns(t *testing.T) {
	vs := clientVariants()
	if vs[0].tiers.Enabled() {
		t.Fatalf("first variant %q has tiers enabled", vs[0].id)
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.id] {
			t.Errorf("duplicate variant id %q", v.id)
		}
		seen[v.id] = true
	}
	s := NewSuite(1)
	canonical, err := s.Prism("C")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := s.whatIf("prism", vs[0].tiers)
	if err != nil {
		t.Fatal(err)
	}
	if canonical != shared {
		t.Error("tiers-off whatIf re-ran instead of sharing prism/C")
	}
	if _, ok := ByID("clientcache"); !ok {
		t.Error("clientcache experiment not registered")
	}
}
