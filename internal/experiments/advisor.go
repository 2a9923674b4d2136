package experiments

import (
	"fmt"
	"strings"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
	"paragonio/internal/policy"
	"paragonio/internal/report"
)

// The advisor experiment closes the loop the paper's conclusion asks
// for: instead of hand-tuning (PRISM's programmers spent months on
// their buffering), the file system derives the cache configuration
// from the observed access pattern. For each workload the loop is
// advise -> configure -> re-run -> measure: classify a trace
// (policy.Classify), merge the cache findings into one cache.Tiers
// (policy.AdviseTiers), re-run the workload under the advised tiers,
// and score the advised run against both the no-cache baseline and the
// oracle-best configuration of the existing cachewhatif/clientcache
// sweeps. Where the advisor has a version-A trace (ESCAT ethylene,
// PRISM), it advises from the UNTUNED version-A run — the advice must
// not depend on the eighteen months of tuning it replaces — and is
// validated on the version-C workload the sweeps measure.

// advisorLoop is one workload's closed loop.
type advisorLoop struct {
	app        string // what-if app id (see Suite.whatIf); also the metric prefix
	title      string
	adviseFrom func(*Suite) (*core.Result, error) // trace the advisor reads
	headline   string                             // the headline operation's column name
	opTime     func(*core.Result) time.Duration
	// oracle names the study sweeps whose tiers-on variants form the
	// candidate pool the advised run is scored against.
	oracle []string
}

// oracleRow is one candidate configuration from the existing sweeps.
type oracleRow struct {
	label string
	t     time.Duration
}

func quadTime(res *core.Result, op pablo.Op) time.Duration {
	return fileOpTime(res.Trace, op, func(f string) bool {
		return strings.HasPrefix(f, escat.QuadFile(0)[:len("escat/quad.")])
	})
}

func restartReadTime(res *core.Result) time.Duration {
	return fileOpTime(res.Trace, pablo.OpRead, func(f string) bool {
		return f == prism.RestartFile
	})
}

// studyVariants maps each what-if study to its variant sweep.
var studyVariants = map[string]func() []variant{
	"cachewhatif": cacheVariants,
	"clientcache": clientVariants,
	"logtier":     logTierVariants,
}

// oraclePool scores loop's headline operation under every tiers-on
// variant of its oracle studies (the baseline is scored separately).
// The read-dominated carbon-monoxide loop leaves the log tier out: a log
// never serves reads, so its rungs cannot be oracle-best there, and the
// 256-node reruns are the suite's most expensive.
func (s *Suite) oraclePool(loop advisorLoop) ([]oracleRow, error) {
	var rows []oracleRow
	for _, study := range loop.oracle {
		for _, v := range studyVariants[study]() {
			if !v.tiers.Enabled() {
				continue
			}
			res, err := s.whatIf(loop.app, v.tiers)
			if err != nil {
				return nil, err
			}
			rows = append(rows, oracleRow{label: study + "/" + v.id, t: loop.opTime(res)})
		}
	}
	return rows, nil
}

func advisorLoops() []advisorLoop {
	return []advisorLoop{
		{
			app:        "eth",
			title:      "ESCAT C (ethylene) staging",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Ethylene("A") },
			headline:   "quad_write_s",
			opTime:     func(res *core.Result) time.Duration { return quadTime(res, pablo.OpWrite) },
			oracle:     []string{"cachewhatif", "logtier"},
		},
		{
			app:        "prism",
			title:      "PRISM C restart",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.Prism("A") },
			headline:   "rst_read_s",
			opTime:     restartReadTime,
			oracle:     []string{"cachewhatif", "clientcache", "logtier"},
		},
		{
			app:        "co",
			title:      "ESCAT C (carbon monoxide) reload",
			adviseFrom: func(s *Suite) (*core.Result, error) { return s.CarbonMonoxide() },
			headline:   "quad_read_s",
			opTime:     func(res *core.Result) time.Duration { return quadTime(res, pablo.OpRead) },
			oracle:     []string{"cachewhatif", "clientcache"},
		},
	}
}

// advisorExp runs every closed loop and renders the comparison.
func advisorExp(s *Suite) (*Artifact, error) {
	var b strings.Builder
	paper := map[string]float64{}
	measured := map[string]float64{}

	for i, loop := range advisorLoops() {
		src, err := loop.adviseFrom(s)
		if err != nil {
			return nil, err
		}
		plan := policy.AdviseTiers(policy.Classify(src.Trace), policy.CacheOptions{})

		base, err := s.whatIf(loop.app, cache.Tiers{})
		if err != nil {
			return nil, err
		}
		advised, err := s.whatIf(loop.app, plan.Tiers)
		if err != nil {
			return nil, err
		}
		pool, err := s.oraclePool(loop)
		if err != nil {
			return nil, err
		}
		best := pool[0]
		for _, row := range pool[1:] {
			if row.t < best.t {
				best = row
			}
		}

		baseT, advT := loop.opTime(base), loop.opTime(advised)
		advSpeed := baseT.Seconds() / advT.Seconds()
		oracleSpeed := baseT.Seconds() / best.t.Seconds()
		pct := 100 * advSpeed / oracleSpeed

		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s — advised tiers: %v\n", loop.title, plan.Tiers)
		for _, n := range plan.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
		report.Table(&b, "",
			[]string{"config", loop.headline, "speedup", "% of oracle"},
			[][]string{
				{"baseline (no cache)", secs(baseT), "1.00", "-"},
				{"advised", secs(advT), fmt.Sprintf("%.2f", advSpeed), fmt.Sprintf("%.1f", pct)},
				{"oracle-best (" + best.label + ")", secs(best.t), fmt.Sprintf("%.2f", oracleSpeed), "100.0"},
			})

		paper[loop.app+"."+loop.headline] = baseT.Seconds()
		measured[loop.app+"."+loop.headline] = advT.Seconds()
		measured[loop.app+".oracle_"+loop.headline] = best.t.Seconds()
		// 'paper' 100 is the oracle bar, so the summary view shows how
		// much of the oracle-best speedup the advice captured.
		paper[loop.app+".pct_of_oracle"] = 100
		measured[loop.app+".pct_of_oracle"] = pct
	}

	return &Artifact{
		ID:       "advisor",
		Title:    "Closed loop: advised cache tiers vs oracle-best sweeps",
		Text:     b.String(),
		Paper:    paper,
		Measured: measured,
		Notes: "Not a paper artifact: the self-tuning step the paper's " +
			"conclusion calls for. The 'paper' column is each workload's " +
			"no-cache headline operation time; 'measured' is the same " +
			"operation under the tiers the advisor derived from the trace " +
			"(for ESCAT ethylene and PRISM, from the UNTUNED version-A " +
			"trace). The oracle is the best configuration any existing " +
			"cachewhatif/clientcache/logtier sweep found for that workload — the " +
			"advisor does not get to peek at it. The negative findings are " +
			"load-bearing: recommending read-ahead alongside write-behind " +
			"would cost PRISM's restart a third of its win (wbra vs wb in " +
			"the sweeps), and recommending the I/O-node tier for carbon " +
			"monoxide would lose outright — the advisor instead turns the " +
			"server tier off and configures a client tier with a lease TTL " +
			"sized to the observed reuse span.",
	}, nil
}
