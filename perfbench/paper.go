package main

import (
	"fmt"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
	"paragonio/internal/workload"
)

var paperSpec = workloadSpec{
	name:    "paper-runs",
	why:     "the seven canonical paper runs back to back on fresh platforms: kernel handoff, PFS, disk/mesh pricing and Pablo recording; cache, faults and server bypassed",
	clients: 1,
	tailQ:   0.90,
	op:      "run",
	setup:   setupPaper,
}

// goldenSeed is the seed the golden digests were captured at.
const goldenSeed = 1

// paperRun is one canonical application run with its golden trace
// digest and event count at goldenSeed (the table pinned by the
// determinism test in internal/experiments).
type paperRun struct {
	key    string
	events int
	digest uint64
	nodes  int
	script appScript
}

func paperRuns() []paperRun {
	esc := func(key string, d escat.Dataset, v escat.Version, events int, digest uint64) paperRun {
		return paperRun{key, events, digest, d.Nodes, func(m *workload.Machine, seed int64) error {
			return escat.Script(m, d, v, seed)
		}}
	}
	pri := func(key string, v prism.Version, events int, digest uint64) paperRun {
		d := prism.TestProblem()
		return paperRun{key, events, digest, d.Nodes, func(m *workload.Machine, seed int64) error {
			return prism.Script(m, d, v, seed)
		}}
	}
	eth := escat.Ethylene()
	return []paperRun{
		esc("eth/A", eth, escat.VersionA(), 81113, 0xb4b7edebfac97216),
		esc("eth/B", eth, escat.VersionB(), 34520, 0x339e736a3349ea94),
		esc("eth/C", eth, escat.VersionC(), 23768, 0x88c20c67d0b1703c),
		esc("co/C", escat.CarbonMonoxide(), escat.VersionCCarbonMonoxide(), 107485, 0x83cf63b5fa1f8c5e),
		pri("prism/A", prism.VersionA(), 19468, 0x0877c0ffa02814f3),
		pri("prism/B", prism.VersionB(), 19972, 0x779d1cf4508e97d6),
		pri("prism/C", prism.VersionC(), 11396, 0xbc010fbf3debceec),
	}
}

// paperBench cycles one driver through the seven runs, each on a fresh
// platform with no cache tiers and no faults, at the workload seed.
type paperBench struct {
	seed int64
	runs []paperRun
	// first maps each run to the digest of its first execution at the
	// workload seed: every later execution must reproduce it.
	first map[string]uint64
	// traced sums the layer statistics of the traced phase's runs.
	traced simStats
}

func setupPaper(o options) (bench, error) {
	b := &paperBench{seed: o.seed, runs: paperRuns(), first: map[string]uint64{}}
	// Warm up on the cheapest run so lazy runtime set-up (heap growth,
	// trace buffer pool) is paid before timing.
	r := b.runs[2]
	if _, _, err := simulate(core.Config{Nodes: r.nodes, Seed: o.seed}, r.script, nil, 0, 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", r.key, err)
	}
	return b, nil
}

// exec runs r once at seed, recording its spans under a fresh
// operation, and reports the digest and event count.
func (b *paperBench) exec(r paperRun, seed int64, tr *tracer, st *simStats) (uint64, int, error) {
	op := tr.newOp()
	root, end := tr.begin(op, 0, "paper."+r.key)
	defer end()
	return simulate(core.Config{Nodes: r.nodes, Seed: seed}, r.script, tr, op, root, st)
}

// measure runs whole cycles of the seven runs until deadline.
func (b *paperBench) measure(deadline time.Time, tr *tracer, m *measurement) {
	var st *simStats
	if tr != nil {
		st = &b.traced
	}
	for time.Now().Before(deadline) {
		for _, r := range b.runs {
			start := time.Now()
			digest, events, err := b.exec(r, b.seed, tr, st)
			d := time.Since(start)
			switch {
			case err != nil:
				m.fail("%s: %v", r.key, err)
				continue
			case b.seed == goldenSeed && (digest != r.digest || events != r.events):
				m.fail("%s: digest %#016x, %d events; golden %#016x, %d events", r.key, digest, events, r.digest, r.events)
				continue
			}
			if want, ok := b.first[r.key]; !ok {
				b.first[r.key] = digest
			} else if digest != want {
				m.fail("%s: digest %#016x differs from this run's first %#016x", r.key, digest, want)
				continue
			}
			m.op(d, 1, 1)
			m.mu.Lock()
			m.simIOOps += int64(events)
			m.mu.Unlock()
		}
	}
}

func (b *paperBench) layers(tr *tracer, out map[string]float64) error {
	if b.traced.runs == 0 {
		return fmt.Errorf("no run traced")
	}
	b.traced.report(out)
	reportHost(out, tr, b.traced.kernelEvents)
	return nil
}

// verify pins the goldens when the workload seed is not the golden
// seed (at the golden seed every timed run was already checked).
func (b *paperBench) verify(m *measurement) {
	if b.seed == goldenSeed {
		return
	}
	for _, r := range b.runs {
		digest, events, err := b.exec(r, goldenSeed, nil, nil)
		m.check(err == nil && digest == r.digest && events == r.events,
			"%s at seed %d: digest %#016x, %d events (err %v); golden %#016x, %d events",
			r.key, goldenSeed, digest, events, err, r.digest, r.events)
	}
}

func (b *paperBench) close() {}
