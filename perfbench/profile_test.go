package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/core"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"paragonio/internal/sim.(*Kernel).Run", "main.main"}, "cpu.sim"},
		{[]string{"runtime.chansend", "runtime.chansend1", "paragonio/internal/sim.(*Proc).Wait"}, "cpu.handoff"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "cpu.handoff"},
		{[]string{"runtime.mallocgc", "paragonio/internal/pablo.(*Trace).grow"}, "cpu.pablo"},
		{[]string{"memeqbody", "runtime.mapaccess2", "paragonio/internal/pfs.(*FileSystem).Open"}, "cpu.pfs"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "cpu.gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "encoding/json.Marshal"}, "cpu.gc"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode"}, "cpu.json"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "net/http.(*persistConn).Read"}, "cpu.net_http"},
		{[]string{"vendor/golang.org/x/net/http/httpguts.ValidHeaderFieldName", "net/http.(*Transport).roundTrip"}, "cpu.net_http"},
		{[]string{"os.ReadFile", "paragonio/internal/server.(*ResultCache).Get"}, "cpu.server"},
		{[]string{"paragonio/internal/server/metrics.(*Counter).Inc"}, "cpu.server"},
		{[]string{"paragonio/internal/experiments.ConfigKey"}, "cpu.experiments"},
		{[]string{"slices.SortFunc[go.shape.[]paragonio/internal/sim.x]", "paragonio/internal/cache.(*LogTier).Append"}, "cpu.cache"},
		{[]string{"paragonio/internal/apps/escat.Ethylene"}, "cpu.other"},
		{[]string{"runtime.nanotime"}, "cpu.other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("%v: got %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestCPUSharesOfRealProfile profiles a real simulation run and checks
// the decoder finds samples, every share is a known bucket, the shares
// account for all samples, and the kernel shows up.
func TestCPUSharesOfRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator under the profiler")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := escat.RunOn(core.Config{Seed: 1}, escat.Ethylene(), escat.VersionC()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Fatalf("only %d samples", samples)
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		sum += v
	}
	if len(shares) != len(cpuBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d buckets summing to %v, want %d summing to 1", len(shares), sum, len(cpuBuckets))
	}
	if shares["cpu.sim"]+shares["cpu.handoff"]+shares["cpu.pfs"] == 0 {
		t.Errorf("a simulation profile with no kernel or PFS samples: %v", shares)
	}
}
