package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"paragonio/internal/cache"
	"paragonio/internal/core"
	"paragonio/internal/pablo"
)

// newTestServer builds a daemon with a stubbed engine so handler tests
// don't burn CPU on real simulations.
func newTestServer(t *testing.T, cfg Config, run runFunc) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		s.runSim = run
	}
	return s
}

// stubRun returns a minimal deterministic result without simulating.
func stubRun(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
	return &core.Result{
		App:     strings.ToUpper(req.App),
		Version: req.Version,
		Nodes:   4,
		Exec:    3 * time.Second,
		Trace:   pablo.NewTrace(),
	}, nil
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

func TestSimulateOKAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"C"}`
	resp, out := postJSON(t, ts, "/v1/simulate", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var first SimulateResponse
	if err := json.Unmarshal(out, &first); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if first.Cached {
		t.Error("first response claims cached")
	}
	if first.App != "prism" || first.Version != "C" || first.Nodes != 4 {
		t.Errorf("response identity %s/%s on %d nodes", first.App, first.Version, first.Nodes)
	}
	if len(first.Hash) != 16 {
		t.Errorf("hash %q not 16 hex digits", first.Hash)
	}

	// The identical request is a cache hit: cached=true, hit counted,
	// and every other field byte-identical.
	_, out2 := postJSON(t, ts, "/v1/simulate", body)
	var second SimulateResponse
	if err := json.Unmarshal(out2, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeat response not served from cache")
	}
	second.Cached = false
	if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
		t.Errorf("cached response diverges:\n%+v\n%+v", first, second)
	}
	if s.cacheHits.Value() != 1 {
		t.Errorf("cache hits = %d, want 1", s.cacheHits.Value())
	}

	// A semantically different request misses.
	_, out3 := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":2}`)
	var third SimulateResponse
	if err := json.Unmarshal(out3, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached || third.Hash == first.Hash {
		t.Error("different seed collided with the cached run")
	}

	// GET /v1/results/{hash} replays the artifact.
	resp4, out4 := getURL(t, ts, "/v1/results/"+first.Hash)
	if resp4.StatusCode != 200 || !bytes.Contains(out4, []byte(`"cached":true`)) {
		t.Errorf("results replay: %d %s", resp4.StatusCode, out4)
	}
	if resp5, _ := getURL(t, ts, "/v1/results/0000000000000000"); resp5.StatusCode != 404 {
		t.Errorf("unknown hash status %d, want 404", resp5.StatusCode)
	}
	if resp6, _ := getURL(t, ts, "/v1/results/nothex"); resp6.StatusCode != 400 {
		t.Errorf("malformed hash status %d, want 400", resp6.StatusCode)
	}
}

func getURL(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, b.Bytes()
}

// TestSimulateBadRequests pins the error-schema contract: every failure
// is {"error": {"code", "message", "field"}} with a stable code and the
// offending field named on validation errors.
func TestSimulateBadRequests(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body      string
		wantCode  string
		wantField string
		wantErr   string
	}{
		{`{not json`, ErrCodeBadJSON, "", "bad request body"},
		{`{"app":"escat","version":"C","bogus":1}`, ErrCodeBadJSON, "", "bad request body"},
		{`{"version":"C"}`, ErrCodeInvalidRequest, "app", "missing app"},
		{`{"app":"fortran","version":"C"}`, ErrCodeInvalidRequest, "app", `unknown app "fortran"`},
		{`{"app":"escat","version":"Z"}`, ErrCodeInvalidRequest, "version", `unknown escat version "Z"`},
		{`{"app":"escat","dataset":"helium","version":"C"}`, ErrCodeInvalidRequest, "dataset", `unknown escat dataset "helium"`},
		{`{"app":"prism","dataset":"ethylene","version":"C"}`, ErrCodeInvalidRequest, "dataset", "prism takes no dataset"},
		{`{"app":"prism","version":"C","shards":2}`, ErrCodeBadJSON, "", `unknown field "shards"`},
		{`{"app":"prism","version":"C","ionodes":-1}`, ErrCodeInvalidRequest, "ionodes", "ionodes must be non-negative"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-melt"}]}`,
			ErrCodeInvalidRequest, "faults", "unknown kind"},
		{`{"app":"prism","version":"C","faults":[{"kind":"straggler","ionode":0,"factor":0.5}]}`,
			ErrCodeInvalidRequest, "faults", "need > 1"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","ionode":99}]}`,
			ErrCodeInvalidRequest, "faults", "out of range"},
		{`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","bogus":1}]}`,
			ErrCodeBadJSON, "", "bad request body"},
		{`{"app":"prism","version":"C","faults":[{"kind":"client-flap","node":1}]}`,
			ErrCodeInvalidRequest, "faults", "client-flap requires the client cache tier"},
		{`{"app":"prism","version":"C","tiers":{"ionode":{}},"faults":[{"kind":"client-flap","node":1}]}`,
			ErrCodeInvalidRequest, "faults", "client-flap requires the client cache tier"},
		{`{"app":"prism","version":"C","tiers":{"client":{}},"faults":[{"kind":"client-flap","node":1,"count":100000000,"period_ms":1}]}`,
			ErrCodeInvalidRequest, "faults", "exceeds the cap"},
	} {
		resp, out := postJSON(t, ts, "/v1/simulate", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400", tc.body, resp.StatusCode)
			continue
		}
		var e apiError
		if err := json.Unmarshal(out, &e); err != nil {
			t.Errorf("%s: error body is not the envelope: %v\n%s", tc.body, err, out)
			continue
		}
		if e.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.body, e.Error.Code, tc.wantCode)
		}
		if e.Error.Field != tc.wantField {
			t.Errorf("%s: field %q, want %q", tc.body, e.Error.Field, tc.wantField)
		}
		if !strings.Contains(e.Error.Message, tc.wantErr) {
			t.Errorf("%s: message %q does not mention %q", tc.body, e.Error.Message, tc.wantErr)
		}
	}
}

// TestErrorSchemaOnRunAndResultPaths pins codes on the non-validation
// paths: engine failure (run_failed), unknown result (not_found), and
// malformed result hash (invalid_request on "hash").
func TestErrorSchemaOnRunAndResultPaths(t *testing.T) {
	failing := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		return nil, fmt.Errorf("boom")
	}
	s := newTestServer(t, Config{}, failing)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var e apiError
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("run failure body: %v\n%s", err, out)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || e.Error.Code != ErrCodeRunFailed {
		t.Errorf("run failure: status %d code %q, want 422 %s", resp.StatusCode, e.Error.Code, ErrCodeRunFailed)
	}

	resp, out = getURL(t, ts, "/v1/results/0000000000000000")
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("not-found body: %v\n%s", err, out)
	}
	if resp.StatusCode != 404 || e.Error.Code != ErrCodeNotFound {
		t.Errorf("unknown hash: status %d code %q, want 404 %s", resp.StatusCode, e.Error.Code, ErrCodeNotFound)
	}

	resp, out = getURL(t, ts, "/v1/results/nothex")
	if err := json.Unmarshal(out, &e); err != nil {
		t.Fatalf("malformed-hash body: %v\n%s", err, out)
	}
	if resp.StatusCode != 400 || e.Error.Code != ErrCodeInvalidRequest || e.Error.Field != "hash" {
		t.Errorf("malformed hash: status %d code %q field %q, want 400 %s hash",
			resp.StatusCode, e.Error.Code, e.Error.Field, ErrCodeInvalidRequest)
	}
}

// TestSimulateFaultsBlock: a faults block reaches the engine config,
// is part of the content address, and counts in the fault-runs metric.
func TestSimulateFaultsBlock(t *testing.T) {
	var got core.Config
	capture := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		got = cfg
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{}, capture)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const degraded = `{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}`
	resp, out := postJSON(t, ts, "/v1/simulate", degraded)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got.Faults.String() != "disk-fail@1000000000,io=0" {
		t.Errorf("engine saw plan %q", got.Faults.String())
	}
	if s.faultRuns.Value() != 1 {
		t.Errorf("fault-runs counter = %d, want 1", s.faultRuns.Value())
	}
	var deg SimulateResponse
	if err := json.Unmarshal(out, &deg); err != nil {
		t.Fatal(err)
	}
	_, out = postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var healthy SimulateResponse
	if err := json.Unmarshal(out, &healthy); err != nil {
		t.Fatal(err)
	}
	if deg.Hash == healthy.Hash {
		t.Error("degraded run shares the healthy run's content address")
	}
	if s.faultRuns.Value() != 1 {
		t.Errorf("healthy run moved the fault-runs counter to %d", s.faultRuns.Value())
	}
}

// TestSimulateLogTierBlock pins the third tier's API surface: the
// tiers.log block reaches the engine as a cache.LogConfig, the log
// counters come back in the response, and the tier is part of the
// content address.
func TestSimulateLogTierBlock(t *testing.T) {
	var got core.Config
	capture := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		got = cfg
		res, err := stubRun(ctx, req, cfg)
		if err == nil && cfg.Tiers.Log != nil {
			res.Log = cache.LogStats{Appends: 512, Drains: 64, Nodes: 4}
		}
		return res, err
	}
	s := newTestServer(t, Config{}, capture)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const logged = `{"app":"prism","version":"C",
		"tiers":{"log":{"segment_bytes":262144,"drain_deadline_ms":10}}}`
	resp, out := postJSON(t, ts, "/v1/simulate", logged)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got.Tiers.Log == nil {
		t.Fatal("engine saw no log tier")
	}
	if got.Tiers.Log.SegmentBytes != 262144 || got.Tiers.Log.DrainDeadline != 10*time.Millisecond {
		t.Errorf("engine saw log config %+v", got.Tiers.Log)
	}
	var withLog SimulateResponse
	if err := json.Unmarshal(out, &withLog); err != nil {
		t.Fatal(err)
	}
	if withLog.Log == nil || withLog.Log.Appends != 512 {
		t.Errorf("response log block = %+v", withLog.Log)
	}
	_, out = postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	var plain SimulateResponse
	if err := json.Unmarshal(out, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Log != nil {
		t.Errorf("tier-off response carries a log block: %+v", plain.Log)
	}
	if withLog.Hash == plain.Hash {
		t.Error("log-tier run shares the tier-off run's content address")
	}
}

func TestSimulateQueueOverflow(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubRun(ctx, req, cfg)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := newTestServer(t, Config{Slots: 1, MaxQueue: 1}, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	// Occupy the slot, then the queue. Distinct seeds so the requests
	// don't coalesce.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts, "/v1/simulate",
				fmt.Sprintf(`{"app":"prism","version":"C","seed":%d}`, i+1))
		}(i)
	}
	<-started // slot holder is running
	// Wait for the second request to be parked in the admission queue.
	for i := 0; ; i++ {
		if s.adm.QueueLen() == 1 {
			break
		}
		if i > 5000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","seed":99}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if s.rejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.rejected.Value())
	}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
}

func TestSimulateCoalescing(t *testing.T) {
	release := make(chan struct{})
	var runs sync.WaitGroup
	var runCount int32
	var mu sync.Mutex
	blocking := func(ctx context.Context, req *SimulateRequest, cfg core.Config) (*core.Result, error) {
		mu.Lock()
		runCount++
		mu.Unlock()
		<-release
		return stubRun(ctx, req, cfg)
	}
	s := newTestServer(t, Config{Slots: 4, MaxQueue: 8}, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"escat","version":"B"}`
	results := make(chan []byte, 3)
	for i := 0; i < 3; i++ {
		runs.Add(1)
		go func() {
			defer runs.Done()
			_, out := postJSON(t, ts, "/v1/simulate", body)
			results <- out
		}()
	}
	// Wait until all three requests are attached to one flight.
	for i := 0; ; i++ {
		s.flightMu.Lock()
		refs := 0
		for _, f := range s.flights {
			refs = f.refs
		}
		nf := len(s.flights)
		s.flightMu.Unlock()
		if nf == 1 && refs == 3 {
			break
		}
		if i > 5000 {
			t.Fatalf("flights=%d refs=%d, want one flight with 3 waiters", nf, refs)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	runs.Wait()
	if runCount != 1 {
		t.Errorf("engine ran %d times for 3 identical requests", runCount)
	}
	if s.coalesced.Value() != 2 {
		t.Errorf("coalesced counter = %d, want 2", s.coalesced.Value())
	}
	for i := 0; i < 3; i++ {
		var r SimulateResponse
		if err := json.Unmarshal(<-results, &r); err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Error("coalesced waiter served a cached response")
		}
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"app":"prism","version":"B"}`
	resp, out := postJSON(t, ts, "/v1/advise", body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var adv AdviseResponse
	if err := json.Unmarshal(out, &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Cached || !strings.HasPrefix(adv.Hash, "advise/") {
		t.Errorf("advise response: cached=%v hash=%q", adv.Cached, adv.Hash)
	}
	_, out2 := postJSON(t, ts, "/v1/advise", body)
	if !bytes.Contains(out2, []byte(`"cached":true`)) {
		t.Error("repeat advise not served from cache")
	}
	// The advise key namespace is disjoint from simulate's.
	_, out3 := postJSON(t, ts, "/v1/simulate", body)
	if bytes.Contains(out3, []byte(`"cached":true`)) {
		t.Error("simulate collided with the advise cache entry")
	}
}

func TestHealthzExperimentsMetrics(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, out := getURL(t, ts, "/healthz"); resp.StatusCode != 200 || string(out) != "ok\n" {
		t.Errorf("healthz: %d %q", resp.StatusCode, out)
	}

	resp, out := getURL(t, ts, "/v1/experiments")
	if resp.StatusCode != 200 {
		t.Fatalf("experiments status %d", resp.StatusCode)
	}
	var rows []struct{ ID, Title string }
	if err := json.Unmarshal(out, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 14 {
		t.Errorf("experiments listed %d entries, want the paper's 14", len(rows))
	}

	postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	resp, out = getURL(t, ts, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(out)
	for _, want := range []string{
		`iosimd_requests_total{endpoint="simulate",code="200"} 2`,
		"iosimd_cache_hits_total 1",
		"iosimd_cache_misses_total 1",
		"# TYPE iosimd_request_seconds histogram",
		"iosimd_run_seconds_count 1",
		"iosimd_inflight_slots 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestSDDFStream(t *testing.T) {
	s := newTestServer(t, Config{}, stubRun)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C","sddf":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if !bytes.HasPrefix(out, []byte("#SDDF")) {
		t.Errorf("stream is not SDDF: %.120s", out)
	}
	if s.cache.Len() != 0 {
		t.Error("SDDF response entered the result cache")
	}
}

// TestDaemonDeterminism runs a real (smallest) canonical simulation
// through the HTTP surface and pins its trace digest against the same
// golden value the CLI and test suite use: the daemon is a transport,
// not a second simulator.
func TestDaemonDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation run")
	}
	s := newTestServer(t, Config{}, nil) // real engine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJSON(t, ts, "/v1/simulate", `{"app":"prism","version":"C"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var r SimulateResponse
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	// Golden digest from internal/experiments/determinism_test.go.
	if r.Digest != "0xbc010fbf3debceec" {
		t.Errorf("daemon prism/C digest %s, golden 0xbc010fbf3debceec", r.Digest)
	}
	if r.Events != 11396 {
		t.Errorf("daemon prism/C events %d, golden 11396", r.Events)
	}

	// The degraded run is just as deterministic: the disk-fail golden
	// from internal/experiments/faults_test.go, reachable over HTTP.
	resp, out = postJSON(t, ts, "/v1/simulate",
		`{"app":"prism","version":"C","faults":[{"kind":"disk-fail","at_ms":1000,"ionode":0}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("degraded status %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if r.Digest != "0x9ce1a397b722477e" {
		t.Errorf("daemon prism/C+disk-fail digest %s, golden 0x9ce1a397b722477e", r.Digest)
	}
	if r.Events != 11396 {
		t.Errorf("daemon prism/C+disk-fail events %d, golden 11396", r.Events)
	}
}
