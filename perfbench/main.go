// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the iosimd service for a fixed
// time, checks every output against pinned goldens and invariants, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) as a JSON object on its last line. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run repeats its workload's set-up;
// setup_s is their median.
const setupReps = 5

// untracedShare is the part of a traced run's time spent untraced, so
// the run can report its own tracing overhead.
const untracedShare = 3

// workloadSpec describes one workload.
type workloadSpec struct {
	name    string
	why     string
	clients int
	tailQ   float64 // the preferred tail percentile of op_ms
	op      string  // what one timed operation (and one ops_per_s unit) is
	// window, when set, splits the timed phase into windows of this
	// length; op_ms.* and ops_per_s are then medians over the full
	// windows, so a burst of interference on the host moves one window
	// rather than the run.
	window time.Duration
	// procs, when set, is the run's GOMAXPROCS.
	procs int
	// setup builds a ready-to-measure workload; the harness calls it
	// setupReps times and closes all but the last.
	setup func(o options) (bench, error)
}

// bench is a set-up workload.
type bench interface {
	// measure drives the closed loop until deadline, recording into m;
	// tr is nil for an untraced phase.
	measure(deadline time.Time, tr *tracer, m *measurement)
	// layers adds the per-layer metrics of the traced phase to out.
	layers(tr *tracer, out map[string]float64) error
	// verify runs the untimed correctness checks that remain after the
	// timed phase.
	verify(m *measurement)
	close()
}

// options are what a workload's set-up needs.
type options struct {
	seed    int64
	workDir string // scratch space for this run, removed at exit
}

var workloads = []workloadSpec{paperSpec, sweepSpec, hitsSpec}

// measurement collects one timed phase's outcome from every client.
type measurement struct {
	start  time.Time
	span   time.Duration // the phase's requested length
	window time.Duration
	tailQ  float64

	mu    sync.Mutex
	latMS []float64 // latency samples: all of them, or the open window's
	// wins summarizes each full window once it closes, so a windowed
	// phase holds one window of samples and the benchmark's memory
	// does not grow under the measured program's collector.
	wins      []latency
	cur       int   // the open window
	work      int64 // work units finished: runs, sweep points, requests
	simIOOps  int64 // Pablo-traced I/O operations simulated
	attempted int64
	failed    int64
	failures  []string
	alloc     uint64 // heap bytes allocated over the phase
	elapsed   time.Duration
}

// op records one successful timed operation that took d, did work
// units of work and covered attempted checked outputs.
func (m *measurement) op(d time.Duration, work, attempted int) {
	m.mu.Lock()
	if m.window > 0 {
		m.closeWindows(int(time.Since(m.start) / m.window))
	}
	m.latMS = append(m.latMS, float64(d.Nanoseconds())/1e6)
	m.work += int64(work)
	m.attempted += int64(attempted)
	m.mu.Unlock()
}

// closeWindows summarizes the open window and any after it up to
// window upTo; windows past the phase's span are dropped, not kept.
// The caller holds m.mu.
func (m *measurement) closeWindows(upTo int) {
	for ; m.cur < upTo; m.cur++ {
		if m.cur < int(m.span/m.window) {
			m.wins = append(m.wins, summarize(m.latMS, m.tailQ))
		}
		m.latMS = m.latMS[:0]
	}
}

// fail records a failed operation (an error, a digest mismatch or an
// unexpected status).
func (m *measurement) fail(format string, args ...any) {
	m.mu.Lock()
	m.attempted++
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
	m.mu.Unlock()
}

// check records a failed correctness check that is not itself a timed
// operation (goldens verified after the timed phase).
func (m *measurement) check(ok bool, format string, args ...any) {
	if !ok {
		m.fail(format, args...)
	}
}

// timed runs one phase: the closed loop until d has passed, with heap
// allocation and wall time measured around it. Clients start nothing
// after the deadline but finish their cycle of work, so throughput is
// taken over whole cycles.
func timed(b bench, d, window time.Duration, tailQ float64, tr *tracer) *measurement {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	m := &measurement{start: start, span: d, window: window, tailQ: tailQ}
	b.measure(start.Add(d), tr, m)
	m.elapsed = time.Since(start)
	if window > 0 {
		m.mu.Lock()
		m.closeWindows(int(d / window))
		m.mu.Unlock()
	}
	runtime.ReadMemStats(&after)
	m.alloc = after.TotalAlloc - before.TotalAlloc
	return m
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; 1 also pins the golden digests")
	seconds := fs.Int("seconds", 10, "timed seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	outDir := fs.String("out", ".bench_build", "directory for run scratch space and trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	if spec.procs > 0 {
		runtime.GOMAXPROCS(spec.procs)
	}
	env := environment(spec, *seed, *trace)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("perfbench: env %s\n", envJSON)

	workDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	var b bench
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t := time.Now()
		b, err = spec.setup(options{seed: *seed, workDir: filepath.Join(workDir, fmt.Sprint("setup", i))})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up: %v\n", spec.name, err)
			return 1
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer b.close()
	runtime.GC()

	total := time.Duration(*seconds) * time.Second
	metrics := map[string]float64{}
	var m *measurement
	if *trace == 0 {
		m = timed(b, total, spec.window, spec.tailQ, nil)
		endToEnd(spec, m, median(setups), metrics)
	} else {
		m, err = tracedRun(spec, b, total, *seed, env, *outDir, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced run: %v\n", spec.name, err)
			return 1
		}
	}
	b.verify(m)

	for _, f := range m.failures {
		fmt.Printf("perfbench: FAIL %s\n", f)
	}
	correct := m.failed == 0
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, m.attempted, m.failed, map[string]metric{}}
	for _, k := range names {
		out.Metrics[k] = metric{metrics[k], unitOf(k)}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// endToEnd derives the untraced run's end-to-end metrics and prints
// them, with the workload-specific names, one per line.
func endToEnd(spec *workloadSpec, m *measurement, setupS float64, out map[string]float64) {
	lat := summarize(m.latMS, spec.tailQ)
	secs := m.elapsed.Seconds()
	out["setup_s"] = setupS
	out["op_ms.p50"] = lat.P50
	out["op_ms.tail"] = lat.Tail
	out["ops_per_s"] = ratio(float64(m.work), secs)
	if m.window > 0 {
		// Medians over the full windows; in a windowed workload one
		// operation is one unit of work.
		var p50s, tails, rates []float64
		for _, w := range m.wins {
			p50s, tails = append(p50s, w.P50), append(tails, w.Tail)
			rates = append(rates, float64(w.N)/m.window.Seconds())
		}
		out["op_ms.p50"], out["op_ms.tail"], out["ops_per_s"] = median(p50s), median(tails), median(rates)
		lat = m.wins[len(m.wins)/2]
		lat.N = int(m.work)
		fmt.Printf("perfbench: %s timings are medians over %d windows of %v\n", spec.name, len(m.wins), m.window)
	}
	out["alloc_kb_per_op"] = ratio(float64(m.alloc)/1024, float64(m.work))

	p := func(name string, v float64, unit string) {
		fmt.Printf("perfbench: %s %-22s %14.4f %s\n", spec.name, name, v, unit)
	}
	p("setup_s", setupS, "s")
	p("failed_frac", ratio(float64(m.failed), float64(m.attempted)), "1")
	fmt.Printf("perfbench: %s %d %ss timed in %.3f s, tail is %s\n",
		spec.name, lat.N, spec.op, secs, tailName(lat.TailQ))
	switch spec.name {
	case paperSpec.name:
		p("run_ms.p50", out["op_ms.p50"], "ms")
		p("run_ms."+tailName(lat.TailQ), out["op_ms.tail"], "ms")
		p("sim_io_ops_per_s", ratio(float64(m.simIOOps), secs), "1/s")
		p("alloc_mb_per_run", out["alloc_kb_per_op"]/1024, "MB")
	case sweepSpec.name:
		p("sweep_s.p50", out["op_ms.p50"]/1e3, "s")
		p("sweep_s."+tailName(lat.TailQ), out["op_ms.tail"]/1e3, "s")
		p("sweep_points_per_s", out["ops_per_s"], "1/s")
		p("alloc_mb_per_point", out["alloc_kb_per_op"]/1024, "MB")
	case hitsSpec.name:
		p("request_ms.p50", out["op_ms.p50"], "ms")
		p("request_ms."+tailName(lat.TailQ), out["op_ms.tail"], "ms")
		p("requests_per_s", out["ops_per_s"], "1/s")
		p("alloc_kb_per_request", out["alloc_kb_per_op"], "KB")
	}
}

// tracedRun measures an untraced share of the time first (for the
// overhead figure), then the rest with spans and a CPU profile, and
// reports the per-layer metrics of the traced part.
func tracedRun(spec *workloadSpec, b bench, total time.Duration, seed int64, env map[string]any, outDir string, out map[string]float64) (*measurement, error) {
	plain := timed(b, total/untracedShare, 0, 0.5, nil)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	m := timed(b, total-total/untracedShare, 0, 0.5, tr)
	runtime.ReadMemStats(&gcAfter)
	pprof.StopCPUProfile()

	for _, name := range perLayer {
		out[name] = 0
	}
	if err := b.layers(tr, out); err != nil {
		return nil, err
	}
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		out[k] = v
	}
	out["gc.cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	out["trace.overhead_ms"] = summarize(m.latMS, 0.5).P50 - summarize(plain.latMS, 0.5).P50
	out["trace.cpu_samples"] = float64(samples)

	// The untraced share's failures count too.
	m.attempted += plain.attempted
	m.failed += plain.failed
	m.failures = append(plain.failures, m.failures...)

	base := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-seed%d", spec.name, seed))
	if err := tr.write(base+".spans.jsonl", env); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("perfbench: %s traced %d %ss; spans in %s.spans.jsonl, profile in %s.cpu.pprof\n",
		spec.name, len(m.latMS), spec.op, base, base)
	return m, nil
}

// perLayer lists every per-layer metric a traced run reports, whatever
// the workload: a layer that does no work on it reports 0.
var perLayer = append([]string{
	"sim.events", "sim.ns_per_event", "core.build_ms", "core.script_ms",
	"pfs.meta_wait_virtual_s", "disk.requests", "disk.seq_hit_ratio",
	"disk.busy_virtual_s", "disk.degraded",
	"cache.ionode.hit_ratio", "cache.ionode.readahead_used_ratio",
	"cache.ionode.forced_flush_stalls", "cache.client.hit_ratio",
	"cache.client.recalls", "cache.log.appends", "cache.log.stall_wait_virtual_s",
	"faults.rerouted", "pablo.events", "pablo.digest_ms", "gc.cycles",
	"server.cache_hits", "server.cache_misses", "server.spill_hits",
	"server.evictions", "server.coalesced", "server.dedup_cache",
	"server.dedup_inflight", "server.rejected", "server.run_s",
	"server.slot_busy_frac", "trace.overhead_ms", "trace.cpu_samples",
}, cpuBuckets...)

// unitOf returns a metric's unit.
func unitOf(name string) string {
	switch {
	case name == "ops_per_s":
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "op_ms."):
		return "ms"
	case name == "alloc_kb_per_op":
		return "KB"
	case name == "sim.ns_per_event":
		return "ns"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_frac") || strings.HasPrefix(name, "cpu."):
		return "ratio"
	}
	return "count"
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// environment is the block every output carries: toolchain, machine,
// and the workload's seed and load shape.
func environment(spec *workloadSpec, seed int64, trace int) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workload":   spec.name,
		"why":        spec.why,
		"seed":       seed,
		"trace":      trace,
		"clients":    spec.clients,
		"loop":       "closed",
		"op":         spec.op,
	}
}

// cpuModel reads the processor model name ("unknown" where the kernel
// does not expose one).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
