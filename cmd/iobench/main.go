// Command iobench runs the derived parallel-I/O benchmark suite — the
// paper's stated future work — sweeping canonical access-pattern
// kernels across PFS modes, request sizes, and machine configurations.
//
// Usage:
//
//	iobench                       # all kernels x all modes (default sizes)
//	iobench -kernel strided-reload -sweep modes
//	iobench -kernel staging-write  -sweep request -mode M_ASYNC
//	iobench -kernel compulsory-read -sweep ionodes -mode M_GLOBAL
//	iobench -kernel checkpoint     -sweep cache   -mode M_ASYNC
//	iobench -kernel strided-reload -sweep clientcache
//	iobench -kernel checkpoint     -sweep faults  -mode M_ASYNC
//	iobench -kernel checkpoint     -sweep logtier -mode M_ASYNC
//	iobench -nodes 64 -volume 67108864 -request 131072
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paragonio/internal/cliflags"
	"paragonio/internal/iobench"
	"paragonio/internal/pfs"
)

func main() {
	var (
		kernel  = flag.String("kernel", "", "kernel slug (empty = all)")
		sweep   = flag.String("sweep", "modes", "sweep dimension: modes, request, ionodes, cache, clientcache, advisor, flush, faults, logtier")
		mode    = flag.String("mode", "M_ASYNC", "access mode for request/ionodes sweeps")
		nodes   = flag.Int("nodes", 32, "compute nodes")
		request = flag.Int64("request", 128<<10, "request size (bytes)")
		volume  = flag.Int64("volume", 32<<20, "total bytes per kernel")
		seed    = flag.Int64("seed", 1, "workload seed")
	)
	flag.Parse()
	if err := run(*kernel, *sweep, *mode, *nodes, *request, *volume, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "iobench:", err)
		os.Exit(1)
	}
}

func run(kernel, sweep, modeName string, nodes int, request, volume, seed int64) error {
	var kernels []iobench.Kernel
	if kernel == "" {
		kernels = iobench.Kernels()
	} else {
		var found bool
		for _, k := range iobench.Kernels() {
			if k.String() == kernel {
				kernels = append(kernels, k)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown kernel %q (try strided-reload, staging-write, ...)", kernel)
		}
	}
	mode, err := pfs.ParseMode(modeName)
	if err != nil {
		return err
	}
	// The what-if ladders, by sweep name, each with the table that shows
	// its own counters.
	rungTable := labelled(func(r *iobench.Result) string { return r.CacheLabel })
	ladders := map[string]struct {
		rungs func() []iobench.Rung
		table func(io.Writer, string, []*iobench.Result) error
	}{
		"cache":       {iobench.CacheLadder, rungTable},
		"clientcache": {iobench.ClientCacheLadder, rungTable},
		"flush":       {iobench.FlushLadder, iobench.WriteFlushTable},
		"faults":      {iobench.FaultLadder, iobench.WriteFaultTable},
		"logtier":     {iobench.LogTierLadder, iobench.WriteLogTierTable},
	}
	for _, k := range kernels {
		base := iobench.Params{
			Kernel: k, Mode: mode, Nodes: nodes,
			Request: request, Volume: volume, Seed: seed,
		}
		var results []*iobench.Result
		table := rungTable
		switch sweep {
		case "modes":
			results, err = iobench.SweepModes(base)
			table = labelled(func(r *iobench.Result) string { return r.Params.Mode.String() })
		case "request":
			results, err = iobench.SweepRequestSizes(base,
				[]int64{4 << 10, 16 << 10, 64 << 10, 128 << 10, 512 << 10})
			table = labelled(func(r *iobench.Result) string {
				return fmt.Sprintf("%d KB", r.Params.Request>>10)
			})
		case "ionodes":
			results, err = iobench.SweepIONodes(base, []int{2, 4, 8, 16, 32})
			table = labelled(func(r *iobench.Result) string {
				return fmt.Sprintf("%d io nodes", r.Params.IONodes)
			})
		case "advisor":
			results, err = iobench.SweepAdvisor(base)
		default:
			l, ok := ladders[sweep]
			if !ok {
				return cliflags.Sweep(sweep,
					[]string{"modes", "request", "ionodes", "cache", "clientcache", "advisor", "flush", "faults", "logtier"})
			}
			results, err = iobench.SweepLadder(base, l.rungs())
			table = l.table
		}
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s: %d nodes, %d KB requests, %d MB volume (sweep: %s)",
			k, nodes, request>>10, volume>>20, sweep)
		if err := table(os.Stdout, title, results); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// labelled returns a table writer whose first column is label(result).
func labelled(label func(*iobench.Result) string) func(io.Writer, string, []*iobench.Result) error {
	return func(w io.Writer, title string, results []*iobench.Result) error {
		return iobench.WriteTable(w, title, results, label)
	}
}
