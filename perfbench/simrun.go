package main

import (
	"fmt"
	"time"

	"paragonio/internal/core"
	"paragonio/internal/workload"
)

// appScript spawns an application's node processes on a machine.
type appScript func(m *workload.Machine, seed int64) error

// simStats sums what one or more in-process simulation runs report:
// the simulated statistics of each layer (identical run to run for a
// fixed input) and the kernel's event count.
type simStats struct {
	runs         int
	kernelEvents uint64
	traceEvents  int
	metaWait     time.Duration

	diskRequests, diskSeqHits, diskDegraded uint64
	diskBusy                                time.Duration

	ioHits, ioMisses, raIssued, raUsed, forcedStalls uint64
	clientHits, clientMisses, clientRecalls          uint64
	logAppends                                       uint64
	logStallWait                                     time.Duration
	rerouted                                         uint64
}

// simulate runs one application on a fresh platform through the
// program's public pieces — core.NewPlatform, the app's Script,
// sim.Kernel.Run and pablo.Trace.Digest — with a span around each call
// when tr is non-nil. It returns the trace digest and event count and,
// when st is non-nil, adds the run's layer statistics to it.
func simulate(cfg core.Config, script appScript, tr *tracer, op, parent int64, st *simStats) (uint64, int, error) {
	_, end := tr.begin(op, parent, "core.NewPlatform")
	p, err := core.NewPlatform(cfg)
	end()
	if err != nil {
		return 0, 0, err
	}
	_, end = tr.begin(op, parent, "app.Script")
	err = script(p.Machine, cfg.Seed)
	end()
	if err != nil {
		return 0, 0, err
	}
	_, end = tr.begin(op, parent, "sim.Kernel.Run")
	err = p.Machine.K.Run()
	end()
	if err != nil {
		return 0, 0, fmt.Errorf("kernel: %w", err)
	}
	_, end = tr.begin(op, parent, "pablo.Trace.Digest")
	digest := p.Trace.Digest()
	end()
	events := p.Trace.Len()
	if st != nil {
		fs := p.Machine.FS
		st.runs++
		st.kernelEvents += p.Machine.K.EventsProcessed()
		st.traceEvents += events
		st.metaWait += time.Duration(fs.MetadataStats().TotalQueue)
		for _, d := range fs.IONodeStats() {
			st.diskRequests += d.Requests
			st.diskSeqHits += d.SeqHits
			st.diskDegraded += d.Degraded
			st.diskBusy += d.Busy
		}
		for _, c := range fs.CacheStats() {
			st.ioHits += c.Hits
			st.ioMisses += c.Misses
			st.raIssued += c.ReadAheadIssued
			st.raUsed += c.ReadAheadUsed
			st.forcedStalls += c.ForcedFlushStalls
		}
		cl := fs.ClientStats()
		st.clientHits += cl.Hits
		st.clientMisses += cl.Misses
		st.clientRecalls += cl.Recalls
		lg := fs.LogStats()
		st.logAppends += lg.Appends
		st.logStallWait += lg.StallWait
		st.rerouted += fs.Rerouted()
	}
	p.Trace.Release() // digest taken; recycle the event buffer
	return digest, events, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report writes the simulated per-layer metrics; counts and virtual
// times are per simulated run.
func (st *simStats) report(out map[string]float64) {
	k := 1 / float64(st.runs)
	out["sim.events"] = float64(st.kernelEvents) * k
	out["pablo.events"] = float64(st.traceEvents) * k
	out["pfs.meta_wait_virtual_s"] = st.metaWait.Seconds() * k
	out["disk.requests"] = float64(st.diskRequests) * k
	out["disk.seq_hit_ratio"] = ratio(float64(st.diskSeqHits), float64(st.diskRequests))
	out["disk.busy_virtual_s"] = st.diskBusy.Seconds() * k
	out["disk.degraded"] = float64(st.diskDegraded) * k
	out["cache.ionode.hit_ratio"] = ratio(float64(st.ioHits), float64(st.ioHits+st.ioMisses))
	out["cache.ionode.readahead_used_ratio"] = ratio(float64(st.raUsed), float64(st.raIssued))
	out["cache.ionode.forced_flush_stalls"] = float64(st.forcedStalls) * k
	out["cache.client.hit_ratio"] = ratio(float64(st.clientHits), float64(st.clientHits+st.clientMisses))
	out["cache.client.recalls"] = float64(st.clientRecalls) * k
	out["cache.log.appends"] = float64(st.logAppends) * k
	out["cache.log.stall_wait_virtual_s"] = st.logStallWait.Seconds() * k
	out["faults.rerouted"] = float64(st.rerouted) * k
}

// reportHost writes the host-time per-layer metrics taken from spans:
// mean milliseconds per call and kernel nanoseconds per event.
func reportHost(out map[string]float64, tr *tracer, kernelEvents uint64) {
	out["core.build_ms"] = tr.meanMS("core.NewPlatform")
	out["core.script_ms"] = tr.meanMS("app.Script")
	out["pablo.digest_ms"] = tr.meanMS("pablo.Trace.Digest")
	out["sim.ns_per_event"] = ratio(float64(tr.totalOf("sim.Kernel.Run").Nanoseconds()), float64(kernelEvents))
}
