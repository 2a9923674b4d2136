package iobench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/faults"
	"paragonio/internal/pfs"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

// ModesFor returns the access modes meaningfully comparable for a
// kernel (single-writer kernels exclude collective modes).
func ModesFor(k Kernel) []pfs.Mode {
	switch k {
	case Checkpoint, ResultFunnel:
		return []pfs.Mode{pfs.MUnix, pfs.MAsync, pfs.MLog}
	default:
		return []pfs.Mode{pfs.MUnix, pfs.MAsync, pfs.MRecord, pfs.MGlobal, pfs.MSync, pfs.MLog}
	}
}

// runSweep executes one Run per parameter set with a GOMAXPROCS-sized
// worker pool — each run builds its own single-threaded simulation, so
// sweep points are embarrassingly parallel — and returns results in
// input order. Results are deterministic in the parameters regardless of
// worker count; on error, the first failing sweep point (in input order)
// is reported via wrap.
func runSweep(params []Params, wrap func(i int, err error) error) ([]*Result, error) {
	out := make([]*Result, len(params))
	errs := make([]error, len(params))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(params) {
		workers = len(params)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = Run(params[i])
			}
		}()
	}
	for i := range params {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, wrap(i, err)
		}
	}
	return out, nil
}

// SweepModes runs one kernel across all applicable access modes.
func SweepModes(base Params) ([]*Result, error) {
	modes := ModesFor(base.Kernel)
	params := make([]Params, len(modes))
	for i, mode := range modes {
		params[i] = base
		params[i].Mode = mode
	}
	return runSweep(params, func(i int, err error) error {
		return fmt.Errorf("%s/%s: %w", base.Kernel, modes[i], err)
	})
}

// SweepRequestSizes runs one kernel/mode across request sizes.
func SweepRequestSizes(base Params, sizes []int64) ([]*Result, error) {
	params := make([]Params, len(sizes))
	for i, s := range sizes {
		params[i] = base
		params[i].Request = s
	}
	return runSweep(params, func(i int, err error) error {
		return fmt.Errorf("%s req=%d: %w", base.Kernel, sizes[i], err)
	})
}

// SweepIONodes runs one kernel/mode across I/O node counts — the
// machine-configuration study of the paper's future work.
func SweepIONodes(base Params, counts []int) ([]*Result, error) {
	params := make([]Params, len(counts))
	for i, c := range counts {
		params[i] = base
		params[i].IONodes = c
	}
	return runSweep(params, func(i int, err error) error {
		return fmt.Errorf("%s ionodes=%d: %w", base.Kernel, counts[i], err)
	})
}

// Rung is one point of a what-if ladder: the cache tiers and fault plan
// a sweep point runs under, and the label its table row carries.
type Rung struct {
	Label  string
	Tiers  cache.Tiers
	Faults faults.Plan
}

// SweepLadder runs one kernel/mode down a what-if ladder. Each rung
// replaces the base params' Tiers and Faults, and each result carries
// its rung's label in CacheLabel.
func SweepLadder(base Params, ladder []Rung) ([]*Result, error) {
	params := make([]Params, len(ladder))
	for i, r := range ladder {
		params[i] = base
		params[i].Tiers = r.Tiers
		params[i].Faults = r.Faults
	}
	results, err := runSweep(params, func(i int, err error) error {
		return fmt.Errorf("%s rung %q: %w", base.Kernel, ladder[i].Label, err)
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		r.CacheLabel = ladder[i].Label
	}
	return results, nil
}

// CacheLadder is the canonical I/O-node cache ladder: no cache,
// write-behind, and write-behind + read-ahead. Labels align with the
// cachewhatif experiment family.
func CacheLadder() []Rung {
	return []Rung{
		{Label: "no-cache"},
		{Label: "write-behind", Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true}}},
		{Label: "wb+read-ahead", Tiers: cache.Tiers{IONode: &cache.Config{WriteBehind: true, ReadAhead: 4}}},
	}
}

// leasedClient is the client tier the ladders use. The lease TTL is long
// because benchmark kernels re-reference within one run; the TTL axis
// itself is studied by the clientcache experiment family.
func leasedClient() *cache.ClientConfig {
	return &cache.ClientConfig{CapacityBytes: 8 << 20, LeaseTTL: 10 * time.Minute}
}

// ClientCacheLadder is the client-tier ladder: no cache, the
// lease-coherent client cache alone, and the client cache stacked on the
// I/O-node cache.
func ClientCacheLadder() []Rung {
	return []Rung{
		{Label: "no-cache"},
		{Label: "client", Tiers: cache.Tiers{Client: leasedClient()}},
		{Label: "client+ion", Tiers: cache.Tiers{
			Client: leasedClient(),
			IONode: &cache.Config{WriteBehind: true, ReadAhead: 4},
		}},
	}
}

// FlushLadder is the flush-policy ladder: the legacy high-water + idle
// policy and the deadline policy across batch size, watermark, and
// deadline settings. Capacity is held at 2 MB so a checkpoint burst
// overruns it — the regime where the flush policy, not the cache size,
// decides how many writes stall.
// The watermark is in blocks: 8 and 24 of the cache's 32 64 KB blocks.
func FlushLadder() []Rung {
	var ladder []Rung
	for _, deadline := range []time.Duration{0, 50 * time.Millisecond, time.Second} {
		policy := "hw-idle"
		if deadline > 0 {
			policy = "deadline=" + deadline.String()
		}
		for _, batch := range []int{4, 32} {
			for _, hw := range []int{8, 24} {
				ladder = append(ladder, Rung{
					Label: fmt.Sprintf("%s b=%d hw=%d%%", policy, batch, 100*hw/32),
					Tiers: cache.Tiers{IONode: &cache.Config{
						WriteBehind:    true,
						CapacityBytes:  2 << 20,
						FlushBatch:     batch,
						DirtyHighWater: hw,
						FlushDeadline:  deadline,
					}},
				})
			}
		}
	}
	return ladder
}

// LogTierLadder is the burst-absorption ladder: no tier at all,
// write-behind through a deadline-flushed I/O-node cache (the server-side
// answer to bursts), the host-side log alone, and the log draining
// through the block cache. Capacity is held at 2 MB on the write-behind
// rung so a checkpoint burst overruns it — the regime the log tier is
// built for.
func LogTierLadder() []Rung {
	wb := func() *cache.Config {
		return &cache.Config{
			WriteBehind:   true,
			CapacityBytes: 2 << 20,
			FlushDeadline: 50 * time.Millisecond,
		}
	}
	return []Rung{
		{Label: "no-cache"},
		{Label: "write-behind", Tiers: cache.Tiers{IONode: wb()}},
		{Label: "log-tier", Tiers: cache.Tiers{Log: &cache.LogConfig{}}},
		{Label: "log+ion", Tiers: cache.Tiers{Log: &cache.LogConfig{}, IONode: wb()}},
	}
}

// FaultLadder is the degraded-mode ladder: the healthy machine, then
// each fault kind injected alone. The client-flap rungs carry the
// lease-coherent client tier (the fault needs leases to storm), so they
// get their own healthy baseline for an apples-to-apples comparison.
// Injection times sit early in the run so most of the workload executes
// degraded.
func FaultLadder() []Rung {
	at := 250 * time.Millisecond
	plan := func(f faults.Fault) faults.Plan { return faults.Plan{Faults: []faults.Fault{f}} }
	client := cache.Tiers{Client: leasedClient()}
	return []Rung{
		{Label: "healthy"},
		{Label: "disk-fail", Faults: plan(faults.Fault{Kind: faults.DiskFail, At: at, IONode: 0})},
		{Label: "node-crash", Faults: plan(faults.Fault{Kind: faults.NodeCrash, At: at, IONode: 0})},
		{Label: "straggler x4", Faults: plan(faults.Fault{Kind: faults.Straggler, At: at, IONode: 0, Factor: 4})},
		{Label: "client healthy", Tiers: client},
		{Label: "client-flap x5", Tiers: client, Faults: plan(faults.Fault{
			Kind: faults.ClientFlap, At: at, Node: 1, Count: 5, Period: 500 * time.Millisecond})},
	}
}

// WriteLogTierTable renders log-tier-sweep results with the tier's own
// counters: records appended, drain passes, and the two stall kinds
// (read barriers and capacity backpressure) with their summed wait.
func WriteLogTierTable(w io.Writer, title string, results []*Result) error {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.CacheLabel,
			fmt.Sprintf("%.3f", r.Wall.Seconds()),
			fmt.Sprintf("%.2f", r.BandwidthMBs()),
			fmt.Sprintf("%.2f", r.P95Op.Seconds()*1000),
			fmt.Sprintf("%d", r.Log.Appends),
			fmt.Sprintf("%d", r.Log.Drains),
			fmt.Sprintf("%d", r.Log.ReadBackStalls),
			fmt.Sprintf("%d", r.Log.AppendStalls),
			fmt.Sprintf("%.3f", r.Log.StallWait.Seconds()),
		})
	}
	return report.Table(w, title,
		[]string{"config", "wall (s)", "MB/s", "p95 (ms)",
			"appends", "drains", "rd_stalls", "bp_stalls", "stall (s)"}, rows)
}

// WriteFaultTable renders fault-sweep results with the degraded-mode
// counters WriteTable omits: reconstruction-mode array requests,
// failover reroutes, and lease recalls delivered.
func WriteFaultTable(w io.Writer, title string, results []*Result) error {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.CacheLabel,
			fmt.Sprintf("%.3f", r.Wall.Seconds()),
			fmt.Sprintf("%.2f", r.BandwidthMBs()),
			fmt.Sprintf("%.2f", r.P95Op.Seconds()*1000),
			fmt.Sprintf("%d", r.Degraded),
			fmt.Sprintf("%d", r.Rerouted),
			fmt.Sprintf("%d", r.Recalls),
		})
	}
	return report.Table(w, title,
		[]string{"config", "wall (s)", "MB/s", "p95 (ms)",
			"degraded", "rerouted", "recalls"}, rows)
}

// SweepAdvisor closes the advisor loop on one kernel: run it bare,
// classify the trace (policy.Classify), derive a cache configuration
// (policy.AdviseTiers), and re-run under the advised tiers. Two rows
// come back: the bare run and the advised run, labelled with the
// advised cache.Tiers.
func SweepAdvisor(base Params) ([]*Result, error) {
	bare := base
	bare.Tiers = cache.Tiers{}
	baseRes, err := Run(bare)
	if err != nil {
		return nil, err
	}
	ionodes := base.IONodes
	if ionodes == 0 {
		ionodes = 16
	}
	plan := policy.AdviseTiers(policy.Classify(baseRes.trace),
		policy.CacheOptions{IONodes: ionodes})
	advised := bare
	advised.Tiers = plan.Tiers
	advRes, err := Run(advised)
	if err != nil {
		return nil, err
	}
	baseRes.CacheLabel = "no-cache"
	advRes.CacheLabel = "advised: " + plan.Tiers.String()
	return []*Result{baseRes, advRes}, nil
}

// WriteFlushTable renders flush-sweep results with the policy counters
// WriteTable omits: forced-flush stalls, flusher passes, deadline-
// limited passes, and the dirty-queue high-water mark.
func WriteFlushTable(w io.Writer, title string, results []*Result) error {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			r.CacheLabel,
			fmt.Sprintf("%.3f", r.Wall.Seconds()),
			fmt.Sprintf("%.3f", r.IOTime.Seconds()),
			fmt.Sprintf("%.2f", r.P95Op.Seconds()*1000),
			fmt.Sprintf("%d", r.Cache.ForcedFlushStalls),
			fmt.Sprintf("%d", r.Cache.Flushes),
			fmt.Sprintf("%d", r.Cache.DeadlineFlushes),
			fmt.Sprintf("%d", r.Cache.MaxDirty),
		})
	}
	return report.Table(w, title,
		[]string{"config", "wall (s)", "io (s)", "p95 (ms)",
			"stalls", "flushes", "deadline_flushes", "max_dirty"}, rows)
}

// WriteTable renders sweep results as an aligned table. label extracts
// the swept dimension from each result.
func WriteTable(w io.Writer, title string, results []*Result, label func(*Result) string) error {
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		rows = append(rows, []string{
			label(r),
			fmt.Sprintf("%.3f", r.Wall.Seconds()),
			fmt.Sprintf("%.2f", r.BandwidthMBs()),
			fmt.Sprintf("%d", r.Ops),
			fmt.Sprintf("%.2f", r.MeanOpMillis()),
			fmt.Sprintf("%.2f", r.P50Op.Seconds()*1000),
			fmt.Sprintf("%.2f", r.P95Op.Seconds()*1000),
		})
	}
	return report.Table(w, title,
		[]string{"config", "wall (s)", "MB/s", "ops", "mean op (ms)", "p50 (ms)", "p95 (ms)"}, rows)
}
