package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

var sweepSpec = workloadSpec{
	name:    "whatif-sweep",
	why:     "two clients POST cold tier-ladder x fault-ladder /v1/sweep grids for eth/C and prism/C, half shared, plus a cold advise each: cache and faults do the work",
	clients: serviceClients,
	tailQ:   0.75,
	op:      "sweep",
	setup:   setupSweep,
}

// The two seed-1 points the service smoke test pins (prism/C).
const (
	pinnedDiskFail = 0x9ce1a397b722477e // + disk-fail{at_ms:1000, ionode:0}
	pinnedLog      = 0x162463d0c4c76706 // + tiers.log:{}
)

// gridShape is one kind of sweep a client sends: seeds × tiers × faults
// for one application, where one seed is shared with the other
// client's grid of the same pass and one is the client's own.
type gridShape struct {
	app, dataset string
	tiers        []*tiersReq
	faults       [][]faultReq
}

// gridShapes cycle pass by pass: prism/C and ESCAT ethylene/C over the
// full ladders, then ethylene/C with the client tier under every fault
// including client-flap.
var gridShapes = []gridShape{
	{"prism", "", tierLadder, faultLadder},
	{"escat", "ethylene", tierLadder, faultLadder},
	{"escat", "ethylene", []*tiersReq{clientTier}, append(append([][]faultReq(nil), faultLadder...), clientFlap)},
}

type sweepBench struct {
	seed int64
	svc  *service
	next [serviceClients]int // each client's next pass

	mu      sync.Mutex
	digests map[string]uint64 // content hash → digest first returned
	pinned  int               // pinned points seen with their golden digest
	// firstPass maps a point of client 0's first pass of each grid
	// shape ("pass/seed/tier/fault") to its digest, for the replay.
	firstPass map[string]uint64

	metricsDelta map[string]float64
	wall         float64
}

func setupSweep(o options) (bench, error) {
	svc, err := startService(filepath.Join(o.workDir, "spill"), 0)
	if err != nil {
		return nil, err
	}
	b := &sweepBench{seed: o.seed, svc: svc, digests: map[string]uint64{}, firstPass: map[string]uint64{}}
	// One cold run of each application warms the engine and the HTTP
	// path; their seed is never reused by a sweep.
	for _, app := range []simReq{{App: "escat", Dataset: "ethylene"}, {App: "prism"}} {
		app.Version, app.Seed = "C", deriveSeed(o.seed, -1)
		body, _ := json.Marshal(app)
		code, resp, err := svc.do(http.MethodPost, "/v1/simulate", "warmup", body, nil, 0, 0, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("warm-up simulate: status %d: %s", code, resp)
		}
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	return b, nil
}

// grid returns client c's sweep for pass k. Its first seed is shared
// with the other client's pass-k grid and its second is its own, so
// every pass is cold but half its points dedupe against the other
// client's. Pass 0's shared seed is the golden seed, which puts the two
// pinned points in the first grid.
func (b *sweepBench) grid(c, k int) sweepReq {
	sh := gridShapes[k%len(gridShapes)]
	shared := deriveSeed(b.seed, int64(k))
	if k == 0 {
		shared = goldenSeed
	}
	return sweepReq{
		App: sh.app, Dataset: sh.dataset, Versions: []string{"C"},
		Seeds: []int64{shared, deriveSeed(b.seed, int64(k), int64(c)+1)},
		Tiers: sh.tiers, Faults: sh.faults,
	}
}

// sweepLine is any NDJSON line of a sweep response: the plan, a point,
// or the closing summary.
type sweepLine struct {
	Plan   bool     `json:"plan"`
	Points int      `json:"points"`
	Seed   int64    `json:"seed"`
	Tier   int      `json:"tier"`
	Fault  int      `json:"fault"`
	Hash   string   `json:"hash"`
	Status string   `json:"status"`
	Error  string   `json:"error"`
	Result *simResp `json:"result"`
	Done   bool     `json:"done"`
	OK     int      `json:"ok"`
}

func (b *sweepBench) measure(deadline time.Time, tr *tracer, m *measurement) {
	before, err := b.svc.scrape(tr)
	if err != nil {
		m.fail("metrics scrape: %v", err)
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for range gridShapes { // one cycle of every shape
					k := b.next[c]
					b.next[c]++
					b.pass(c, k, tr, m)
				}
			}
		}()
	}
	wg.Wait()
	b.wall = time.Since(start).Seconds()
	after, err := b.svc.scrape(tr)
	if err != nil {
		m.fail("metrics scrape: %v", err)
		return
	}
	b.metricsDelta = promDelta(before, after)
}

// pass sends client c's pass-k sweep, checks every point as it
// streams in, then sends one cold advise.
func (b *sweepBench) pass(c, k int, tr *tracer, m *measurement) {
	client := fmt.Sprintf("client%d", c)
	g := b.grid(c, k)
	chk := sweepCheck{b: b, c: c, k: k, m: m, points: len(g.Seeds) * len(g.Tiers) * len(g.Faults)}
	body, _ := json.Marshal(g)
	op := tr.newOp()
	start := time.Now()
	err := b.svc.stream(http.MethodPost, "/v1/sweep", client, body, tr, op, 0, "http.sweep", chk.line)
	d := time.Since(start)
	if err != nil {
		m.fail("sweep %s pass %d: %v", client, k, err)
		return
	}
	if chk.complete() {
		m.op(d, chk.points, chk.points)
	}

	adv, _ := json.Marshal(simReq{App: g.App, Dataset: g.Dataset, Version: "C", Seed: g.Seeds[len(g.Seeds)-1]})
	code, resp, err := b.svc.do(http.MethodPost, "/v1/advise", client, adv, tr, op, 0, "http.advise")
	var a struct {
		Hash   string `json:"hash"`
		Cached bool   `json:"cached"`
		Advice string `json:"advice"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(resp, &a)
	}
	if err != nil || code != http.StatusOK || a.Cached || a.Advice == "" {
		m.fail("advise %s pass %d: status %d, err %v, cached %v: %.200s", client, k, code, err, a.Cached, resp)
		return
	}
	m.mu.Lock()
	m.attempted++
	m.mu.Unlock()
}

// sweepCheck validates one sweep response line by line: every point
// ok, a content hash always answered with the same digest, the pinned
// points at their goldens, and a summary that counts every point.
type sweepCheck struct {
	b          *sweepBench
	c, k       int
	m          *measurement
	points     int
	good, seen int
	summary    *sweepLine
}

func (s *sweepCheck) line(raw []byte) {
	var l sweepLine
	if err := json.Unmarshal(raw, &l); err != nil {
		s.m.fail("sweep pass %d: bad line: %v", s.k, err)
		return
	}
	switch {
	case l.Plan:
		if l.Points != s.points {
			s.m.fail("sweep pass %d: plan has %d points, sent %d", s.k, l.Points, s.points)
		}
		return
	case l.Done:
		s.summary = &l
		return
	}
	s.seen++
	if l.Status != "ok" || l.Result == nil {
		s.m.fail("sweep pass %d point seed=%d tier=%d fault=%d: status %q: %s", s.k, l.Seed, l.Tier, l.Fault, l.Status, l.Error)
		return
	}
	digest, err := strconv.ParseUint(l.Result.Digest, 0, 64)
	if err != nil {
		s.m.fail("sweep pass %d: digest %q: %v", s.k, l.Result.Digest, err)
		return
	}
	if msg := s.b.record(s.c, s.k, l, digest); msg != "" {
		s.m.fail("sweep pass %d point seed=%d tier=%d fault=%d: %s", s.k, l.Seed, l.Tier, l.Fault, msg)
		return
	}
	s.good++
}

// complete reports whether every point passed and the summary agrees.
func (s *sweepCheck) complete() bool {
	if s.summary == nil || s.summary.OK != s.points || s.seen != s.points {
		s.m.fail("sweep pass %d: %d point lines, summary %+v, want %d ok", s.k, s.seen, s.summary, s.points)
		return false
	}
	return s.good == s.points
}

// record checks one ok point against every earlier answer for its
// content hash and against the pinned goldens, and returns a failure
// message or "".
func (b *sweepBench) record(c, k int, l sweepLine, digest uint64) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.digests[l.Hash]; ok && prev != digest {
		return fmt.Sprintf("hash %s answered %#016x, earlier %#016x", l.Hash, digest, prev)
	}
	b.digests[l.Hash] = digest
	if k == 0 && l.Seed == goldenSeed {
		want := uint64(0)
		switch {
		case l.Tier == 0 && l.Fault == faultDiskI:
			want = pinnedDiskFail
		case l.Tier == 3 && l.Fault == 0:
			want = pinnedLog
		}
		if want != 0 {
			if digest != want {
				return fmt.Sprintf("pinned digest %#016x, golden %#016x", digest, want)
			}
			b.pinned++
		}
	}
	if c == 0 && k < len(gridShapes) {
		b.firstPass[fmt.Sprintf("%d/%d/%d/%d", k, l.Seed, l.Tier, l.Fault)] = digest
	}
	return ""
}

// layers reports the server counters of the traced phase, and the
// simulated layer statistics of an in-process replay of the shared
// half of each grid shape's first pass, checked digest for digest
// against the service's answers.
func (b *sweepBench) layers(tr *tracer, out map[string]float64) error {
	serverLayers(b.metricsDelta, b.wall, b.svc.slots, out)
	var st simStats
	for k := range gridShapes {
		g := b.grid(0, k)
		for ti, tiers := range g.Tiers {
			for fi, fl := range g.Faults {
				r := simReq{App: g.App, Dataset: g.Dataset, Version: "C", Seed: g.Seeds[0], Tiers: tiers, Faults: fl}
				script, nodes, err := appOf(r)
				if err != nil {
					return err
				}
				op := tr.newOp()
				root, end := tr.begin(op, 0, "replay")
				digest, _, err := simulate(coreConfig(r, nodes), script, tr, op, root, &st)
				end()
				if err != nil {
					return fmt.Errorf("replay pass %d tier %d fault %d: %w", k, ti, fi, err)
				}
				b.mu.Lock()
				want, ok := b.firstPass[fmt.Sprintf("%d/%d/%d/%d", k, r.Seed, ti, fi)]
				b.mu.Unlock()
				if ok && want != digest {
					return fmt.Errorf("replay pass %d tier %d fault %d: digest %#016x, service said %#016x", k, ti, fi, digest, want)
				}
			}
		}
	}
	st.report(out)
	reportHost(out, tr, st.kernelEvents)
	return nil
}

func (b *sweepBench) verify(m *measurement) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m.check(b.pinned >= 2, "only %d of the pinned seed-1 points seen", b.pinned)
}

func (b *sweepBench) close() { b.svc.close() }
