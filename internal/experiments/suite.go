// Package experiments maps every table and figure of the paper's
// evaluation to a runnable experiment: each regenerates its artifact
// from fresh simulated runs and reports measured values side by side
// with the paper's, so the reproduction quality is auditable (see
// EXPERIMENTS.md for the recorded comparison).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/core"
)

// Suite caches application runs shared by multiple experiments (the
// ESCAT ethylene traces feed Tables 1-3 and Figures 1-5; the PRISM
// traces feed Table 4-5 and Figures 6-9). Runs are deterministic in the
// seed.
//
// A Suite is safe for concurrent use: each distinct run executes exactly
// once (concurrent requesters of the same run wait for the first), and
// distinct runs proceed in parallel — each builds its own single-threaded
// simulation kernel, so results are identical to serial execution.
type Suite struct {
	Seed int64

	mu   sync.Mutex
	runs map[string]*runSlot
}

// runSlot is the singleflight cell for one cached application run.
type runSlot struct {
	once sync.Once
	res  *core.Result
	err  error
}

// NewSuite creates an empty suite; runs happen lazily.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed, runs: make(map[string]*runSlot)}
}

// Release hands every cached run's trace buffer back to the pablo event
// pool and empties the run cache. Call it when the suite's results —
// including every Events() view derived from them — are no longer
// referenced: the buffers will be overwritten by the next recording
// run. High-churn callers (benchmark re-runs, batch drivers creating a
// suite per pass) use it to recycle the dominant allocation of a pass;
// everyone else can let the GC do the work.
func (s *Suite) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, slot := range s.runs {
		if slot.res != nil && slot.res.Trace != nil {
			slot.res.Trace.Release()
		}
	}
	s.runs = make(map[string]*runSlot)
}

// cfg returns the platform configuration all suite runs share.
func (s *Suite) cfg() core.Config {
	return core.Config{Seed: s.Seed}
}

// run returns the cached result for the run identified by id, executing
// f on first use. The cache key is ConfigKey(s.cfg(), id) rather than id
// alone, so a Suite whose Seed field is mutated after
// runs began never serves a result computed under the old configuration
// — the new configuration simply misses and recomputes.
func (s *Suite) run(id string, f func() (*core.Result, error)) (*core.Result, error) {
	key := ConfigKey(s.cfg(), id)
	s.mu.Lock()
	if s.runs == nil {
		s.runs = make(map[string]*runSlot)
	}
	slot, ok := s.runs[key]
	if !ok {
		slot = &runSlot{}
		s.runs[key] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() { slot.res, slot.err = f() })
	return slot.res, slot.err
}

// Ethylene returns the cached ESCAT ethylene run for a paper version
// ("A", "B", "C"), executing it on first use.
func (s *Suite) Ethylene(id string) (*core.Result, error) {
	var v escat.Version
	switch id {
	case "A":
		v = escat.VersionA()
	case "B":
		v = escat.VersionB()
	case "C":
		v = escat.VersionC()
	default:
		return nil, fmt.Errorf("experiments: unknown ESCAT version %q", id)
	}
	return s.run("eth/"+id, func() (*core.Result, error) {
		return escat.RunOn(s.cfg(), escat.Ethylene(), v)
	})
}

// Progressions returns the six ESCAT builds of Figure 1, in order. The
// builds identical to paper versions share the Ethylene cache entries;
// uncached builds run concurrently.
func (s *Suite) Progressions() ([]*core.Result, error) {
	versions := escat.Progressions()
	out := make([]*core.Result, len(versions))
	errs := make([]error, len(versions))
	var wg sync.WaitGroup
	for i, v := range versions {
		i, v := i, v
		key := "prog/" + v.ID
		switch v.ID {
		case "A", "B", "C": // identical builds to the paper versions
			key = "eth/" + v.ID
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = s.run(key, func() (*core.Result, error) {
				return escat.RunOn(s.cfg(), escat.Ethylene(), v)
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// CarbonMonoxide returns the cached ESCAT carbon-monoxide version C run.
func (s *Suite) CarbonMonoxide() (*core.Result, error) {
	return s.run("co/C", func() (*core.Result, error) {
		return escat.RunOn(s.cfg(), escat.CarbonMonoxide(), escat.VersionCCarbonMonoxide())
	})
}

// Prism returns the cached PRISM run for a version ("A", "B", "C").
func (s *Suite) Prism(id string) (*core.Result, error) {
	var v prism.Version
	switch id {
	case "A":
		v = prism.VersionA()
	case "B":
		v = prism.VersionB()
	case "C":
		v = prism.VersionC()
	default:
		return nil, fmt.Errorf("experiments: unknown PRISM version %q", id)
	}
	return s.run("prism/"+id, func() (*core.Result, error) {
		return prism.RunOn(s.cfg(), prism.TestProblem(), v)
	})
}

// Artifact is one regenerated table or figure with its paper-vs-measured
// comparison.
type Artifact struct {
	ID    string // "table2", "figure5", ...
	Title string
	// Text is the rendered artifact (table or character plot) plus the
	// comparison rows.
	Text string
	// Paper and Measured hold the comparable key metrics; keys match.
	Paper    map[string]float64
	Measured map[string]float64
	// Notes records known reproduction deviations.
	Notes string
}

// MetricKeys returns the artifact's comparison keys, sorted.
func (a *Artifact) MetricKeys() []string {
	keys := make([]string, 0, len(a.Paper))
	for k := range a.Paper {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Experiment is one runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Suite) (*Artifact, error)
}

// All returns every experiment in paper order: tables 1-5, figures 1-9.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: ESCAT node activity and file access modes", Run: table1},
		{ID: "table2", Title: "Table 2: ESCAT aggregate I/O time by operation (%)", Run: table2},
		{ID: "table3", Title: "Table 3: ESCAT % of execution time by I/O operation", Run: table3},
		{ID: "table4", Title: "Table 4: PRISM node activity and file access modes", Run: table4},
		{ID: "table5", Title: "Table 5: PRISM aggregate I/O time by operation (%)", Run: table5},
		{ID: "figure1", Title: "Figure 1: ESCAT execution time across six progressions", Run: figure1},
		{ID: "figure2", Title: "Figure 2: ESCAT CDFs of request sizes and data transfers", Run: figure2},
		{ID: "figure3", Title: "Figure 3: ESCAT read sizes over time (A vs C)", Run: figure3},
		{ID: "figure4", Title: "Figure 4: ESCAT write sizes over time (A vs C)", Run: figure4},
		{ID: "figure5", Title: "Figure 5: ESCAT seek durations (B vs C)", Run: figure5},
		{ID: "figure6", Title: "Figure 6: PRISM execution time across three versions", Run: figure6},
		{ID: "figure7", Title: "Figure 7: PRISM CDFs of request sizes and data transfers", Run: figure7},
		{ID: "figure8", Title: "Figure 8: PRISM read sizes over time (A/B/C)", Run: figure8},
		{ID: "figure9", Title: "Figure 9: PRISM write sizes over time (C)", Run: figure9},
		{ID: "cachewhatif", Title: "What-if: I/O-node buffer cache (write-behind / read-ahead)", Run: cacheWhatIf},
		{ID: "clientcache", Title: "What-if: client cache tier with lease coherence", Run: clientCache},
		{ID: "advisor", Title: "Closed loop: advised cache tiers vs oracle-best sweeps", Run: advisorExp},
		{ID: "flushpolicy", Title: "Flush-policy study: high-water + idle vs deadline write-behind", Run: flushPolicy},
		{ID: "faults", Title: "Fault study: checkpoint workloads on a degraded machine", Run: faultsExp},
		{ID: "logtier", Title: "Log tier study: host-side burst buffer vs server write-behind", Run: logTierExp},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes exps (nil means All()) against the suite with up to
// workers experiments in flight at once, returning the artifacts in exps
// order. workers <= 0 means GOMAXPROCS. Artifacts depend only on their
// (deterministic, cached) application runs, so the output is identical
// to running each experiment serially; on error, the first failure in
// exps order is reported.
func RunAll(s *Suite, exps []Experiment, workers int) ([]*Artifact, error) {
	if exps == nil {
		exps = All()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	arts := make([]*Artifact, len(exps))
	errs := make([]error, len(exps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				arts[i], errs[i] = exps[i].Run(s)
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	return arts, nil
}
