package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"paragonio/internal/apps/escat"
	"paragonio/internal/apps/prism"
	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/faults"
	"paragonio/internal/server"
	"paragonio/internal/workload"
)

// serviceClients is the client goroutine count of the service
// workloads: the two cores of the reference machine.
const serviceClients = 2

// serviceSlots is the admission slot pool the benchmark gives the
// service: one simulation at a time. Two simulations sharing two cores
// run anywhere from 1.1x to 1.9x slower each from one process to the
// next (the kernel's goroutine handoffs contend across processors), a
// spread no run length averages out; one slot keeps engine time steady
// and leaves the second core to HTTP, JSON and the collector.
const serviceSlots = 1

// service is an iosimd daemon, server.New(cfg).Handler(), behind a
// loopback listener, with the HTTP client the benchmark's clients
// share.
type service struct {
	ts     *httptest.Server
	client *http.Client
	slots  int
}

func startService(spillDir string, cacheBytes int64) (*service, error) {
	srv, err := server.New(server.Config{Slots: serviceSlots, CacheBytes: cacheBytes, SpillDir: spillDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &service{
		ts: ts,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
			Timeout:   2 * time.Minute,
		},
		slots: serviceSlots,
	}, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
}

// send issues one request as client; a nil body sends none.
func (s *service) send(method, path, client string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Client", client)
	return s.client.Do(req)
}

// do sends one request as client and returns the status and body, with
// a span named after the endpoint.
func (s *service) do(method, path, client string, body []byte, tr *tracer, op, parent int64, name string) (int, []byte, error) {
	_, end := tr.begin(op, parent, name)
	defer end()
	resp, err := s.send(method, path, client, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// stream sends one request as client and hands each line of a 200
// response to line as it arrives (a non-200 body is returned in the
// error), with a span named after the endpoint.
func (s *service) stream(method, path, client string, body []byte, tr *tracer, op, parent int64, name string, line func([]byte)) error {
	_, end := tr.begin(op, parent, name)
	defer end()
	resp, err := s.send(method, path, client, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line(sc.Bytes())
	}
	return sc.Err()
}

// scrape reads /metrics.
func (s *service) scrape(tr *tracer) (map[string]float64, error) {
	code, body, err := s.do(http.MethodGet, "/metrics", "perfbench", nil, tr, tr.newOp(), 0, "http.metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return promSamples(string(body))
}

// serverLayers writes the server.* metrics from a /metrics delta taken
// over wall seconds.
func serverLayers(d map[string]float64, wall float64, slots int, out map[string]float64) {
	out["server.cache_hits"] = d["iosimd_cache_hits_total"]
	out["server.cache_misses"] = d["iosimd_cache_misses_total"]
	out["server.spill_hits"] = d["iosimd_cache_spill_hits_total"]
	out["server.evictions"] = d["iosimd_cache_evictions_total"]
	out["server.coalesced"] = d["iosimd_coalesced_total"]
	out["server.dedup_cache"] = d[`iosimd_sweep_dedup_total{source="cache"}`]
	out["server.dedup_inflight"] = d[`iosimd_sweep_dedup_total{source="inflight"}`]
	out["server.rejected"] = d["iosimd_rejected_total"]
	out["server.run_s"] = d["iosimd_run_seconds_sum"]
	out["server.slot_busy_frac"] = ratio(d["iosimd_run_seconds_sum"], wall*float64(slots))
}

// The wire shapes the benchmark sends: a what-if simulate/advise
// request and a sweep grid. Only fields the benchmark sets are listed;
// none of them is a kernel-sharding knob.
type simReq struct {
	App     string     `json:"app"`
	Dataset string     `json:"dataset,omitempty"`
	Version string     `json:"version"`
	Seed    int64      `json:"seed,omitempty"`
	Tiers   *tiersReq  `json:"tiers,omitempty"`
	Faults  []faultReq `json:"faults,omitempty"`
}

type sweepReq struct {
	App      string       `json:"app"`
	Dataset  string       `json:"dataset,omitempty"`
	Versions []string     `json:"versions"`
	Seeds    []int64      `json:"seeds"`
	Tiers    []*tiersReq  `json:"tiers"`
	Faults   [][]faultReq `json:"faults"`
}

type tiersReq struct {
	IONode *ionodeReq `json:"ionode,omitempty"`
	Client *struct{}  `json:"client,omitempty"`
	Log    *struct{}  `json:"log,omitempty"`
}

type ionodeReq struct {
	WriteBehind bool `json:"write_behind,omitempty"`
	ReadAhead   int  `json:"read_ahead,omitempty"`
}

type faultReq struct {
	Kind     string  `json:"kind"`
	AtMS     int64   `json:"at_ms,omitempty"`
	IONode   int     `json:"ionode,omitempty"`
	Node     int     `json:"node,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	PeriodMS int64   `json:"period_ms,omitempty"`
	Count    int     `json:"count,omitempty"`
}

// simResp is the part of a simulate response the checks read.
type simResp struct {
	Hash   string `json:"hash"`
	Cached bool   `json:"cached"`
	Digest string `json:"digest"`
}

// The tier ladder: no tier, I/O-node write-behind + read-ahead, client,
// log, log + I/O-node.
var (
	ionodeWBRA = &ionodeReq{WriteBehind: true, ReadAhead: 4}
	tierLadder = []*tiersReq{
		nil,
		{IONode: ionodeWBRA},
		{Client: &struct{}{}},
		{Log: &struct{}{}},
		{Log: &struct{}{}, IONode: ionodeWBRA},
	}
	clientTier = &tiersReq{Client: &struct{}{}}
)

// The fault ladder: healthy, then one fault of each targeted kind, all
// injected at one simulated second. client-flap is only ever sent with
// the client tier.
var (
	faultDiskI  = 1 // index of disk-fail in faultLadder
	faultLadder = [][]faultReq{
		nil,
		{{Kind: "disk-fail", AtMS: 1000, IONode: 0}},
		{{Kind: "node-crash", AtMS: 1000, IONode: 1}},
		{{Kind: "straggler", AtMS: 1000, IONode: 2, Factor: 4}},
	}
	clientFlap = []faultReq{{Kind: "client-flap", AtMS: 1000, Node: 1, PeriodMS: 500, Count: 5}}
)

// appOf resolves a request's application to its script and node count.
func appOf(r simReq) (appScript, int, error) {
	switch {
	case r.App == "prism" && r.Version == "C":
		d := prism.TestProblem()
		return func(m *workload.Machine, seed int64) error { return prism.Script(m, d, prism.VersionC(), seed) }, d.Nodes, nil
	case r.App == "escat" && r.Dataset == "ethylene" && r.Version == "C":
		d := escat.Ethylene()
		return func(m *workload.Machine, seed int64) error { return escat.Script(m, d, escat.VersionC(), seed) }, d.Nodes, nil
	}
	return nil, 0, fmt.Errorf("no in-process replay for %s/%s/%s", r.App, r.Dataset, r.Version)
}

// coreConfig maps a request onto the platform configuration the
// service documents for it, so an in-process replay of a sweep point
// can be checked digest for digest against the service's answer.
func coreConfig(r simReq, nodes int) core.Config {
	cfg := core.Config{Nodes: nodes, Seed: r.Seed}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if t := r.Tiers; t != nil {
		if t.IONode != nil {
			cfg.Tiers.IONode = &cache.Config{WriteBehind: t.IONode.WriteBehind, ReadAhead: t.IONode.ReadAhead}
		}
		if t.Client != nil {
			cfg.Tiers.Client = &cache.ClientConfig{}
		}
		if t.Log != nil {
			cfg.Tiers.Log = &cache.LogConfig{}
		}
	}
	for _, f := range r.Faults {
		cfg.Faults.Faults = append(cfg.Faults.Faults, faults.Fault{
			Kind:   faults.Kind(f.Kind),
			At:     time.Duration(f.AtMS) * time.Millisecond,
			IONode: f.IONode,
			Node:   f.Node,
			Factor: f.Factor,
			Period: time.Duration(f.PeriodMS) * time.Millisecond,
			Count:  f.Count,
		})
	}
	return cfg
}

// mix64 is the splitmix64 finalizer: derived seeds are a pure function
// of the workload seed and a stream position, whatever the goroutine
// interleaving.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns a simulation seed in [2, 1e9+2) for a workload
// seed and stream coordinates; 1 (the golden seed) is never produced.
func deriveSeed(seed int64, coords ...int64) int64 {
	x := mix64(uint64(seed))
	for _, c := range coords {
		x = mix64(x ^ uint64(c))
	}
	return int64(x%1_000_000_000) + 2
}
