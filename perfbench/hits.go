package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

var hitsSpec = workloadSpec{
	name:    "iosimd-hits",
	why:     "two clients send a Zipf stream of simulate, advise and result lookups over a pre-warmed set larger than the memory cache, 5% malformed: no simulation runs",
	clients: serviceClients,
	tailQ:   0.99,
	op:      "request",
	window:  time.Second,
	// One processor: with two, the clients' and handlers' goroutines
	// settle per process into a same-processor or a cross-processor
	// handoff pattern, and the run's median latency lands near 20 or
	// near 31 µs depending on which. With one, runs agree within a few
	// percent, and throughput tracks the service's CPU cost per request.
	procs: 1,
	setup: setupHits,
}

const (
	// hitsCacheBytes is the in-memory result budget the benchmark gives
	// the service: about half the working set (47 KB of response bodies
	// at seed 1), so the hot head is served from memory and the tail
	// from the spill directory.
	hitsCacheBytes = 24 << 10
	// zipfS is the stream's skew.
	zipfS = 1.1
	// badShare is the fixed share of malformed requests.
	badShare = 0.05
	// simSeeds × the tier ladder is the simulate half of the working
	// set; adviseSeeds adds the advise entries.
	simSeeds    = 3
	adviseSeeds = 5
)

// drawKind is one request type of the stream.
type drawKind int

const (
	drawSimulate drawKind = iota // POST /v1/simulate of a working-set entry
	drawResult                   // GET /v1/results/{hash} of a simulate entry
	drawAdvise                   // POST /v1/advise of an advise entry
	drawBadApp                   // unknown app
	drawBadField                 // unknown field
	drawBadFault                 // unknown fault kind
)

// entry is one working-set member: a request body and, after the
// pre-warm, the hash the service filed it under and what it answered.
type entry struct {
	advise bool
	class  int // entries of one class have responses of one shape
	body   []byte
	hash   string
	digest uint64 // simulate entries
	advice string // advise entries

	mu     sync.Mutex
	cached []byte // the verified cached body, once a hit was checked
}

// malformed requests, each invalid under any stricter future rules too:
// the path, the body, and the error code and field the 400 must carry.
var malformed = map[drawKind]struct {
	path, body, code, field string
}{
	drawBadApp:   {"/v1/advise", `{"app":"escat-9","version":"C"}`, "invalid_request", "app"},
	drawBadField: {"/v1/simulate", `{"app":"escat","version":"C","bogus_knob":1}`, "bad_json", "bogus_knob"},
	drawBadFault: {"/v1/simulate", `{"app":"escat","dataset":"ethylene","version":"C","faults":[{"kind":"disk-melt","at_ms":1000}]}`, "invalid_request", "faults"},
}

// workingSet builds the entries for a workload seed: ESCAT
// ethylene/C across the tier ladder at simSeeds seeds, plus advise
// requests at adviseSeeds seeds.
func workingSet(seed int64) []*entry {
	var out []*entry
	for s := 0; s < simSeeds; s++ {
		for ti, t := range tierLadder {
			body, _ := json.Marshal(simReq{App: "escat", Dataset: "ethylene", Version: "C", Seed: deriveSeed(seed, 'w', int64(s)), Tiers: t})
			out = append(out, &entry{class: ti, body: body})
		}
	}
	for s := 0; s < adviseSeeds; s++ {
		body, _ := json.Marshal(simReq{App: "escat", Dataset: "ethylene", Version: "C", Seed: deriveSeed(seed, 'a', int64(s))})
		out = append(out, &entry{advise: true, class: len(tierLadder), body: body})
	}
	return out
}

// reqGen is one client's seeded request stream: Zipf-ranked entries of
// the working set (in hotOrder, shared by all clients) and a fixed
// share of malformed requests.
type reqGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	perm []int
	set  []*entry
}

func newReqGen(seed int64, client int, set []*entry) *reqGen {
	r := rand.New(rand.NewSource(deriveSeed(seed, 'z', int64(client))))
	return &reqGen{
		r:    r,
		zipf: rand.NewZipf(r, zipfS, 1, uint64(len(set)-1)),
		perm: hotOrder(seed, set),
		set:  set,
	}
}

// hotOrder ranks the working set for the Zipf draw: round by round,
// one entry of each class in class order. The seed shuffles entries
// within a class but not the class at each rank, so the response sizes
// of the hot head, and with them how much of it fits in memory and the
// bytes moved per request, do not hinge on the seed.
func hotOrder(seed int64, set []*entry) []int {
	var classes [][]int
	for i, e := range set {
		for len(classes) <= e.class {
			classes = append(classes, nil)
		}
		classes[e.class] = append(classes[e.class], i)
	}
	r := rand.New(rand.NewSource(deriveSeed(seed, 'p')))
	for _, c := range classes {
		r.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	order := make([]int, 0, len(set))
	for len(order) < len(set) {
		for ci, c := range classes {
			if len(c) > 0 {
				order, classes[ci] = append(order, c[0]), c[1:]
			}
		}
	}
	return order
}

// next draws the next request: its kind and, for a well-formed one,
// the working-set entry's index.
func (g *reqGen) next() (drawKind, int) {
	if g.r.Float64() < badShare {
		return drawBadApp + drawKind(g.r.Intn(3)), -1
	}
	i := g.perm[g.zipf.Uint64()]
	switch {
	case g.set[i].advise:
		return drawAdvise, i
	case g.r.Intn(2) == 0:
		return drawResult, i
	}
	return drawSimulate, i
}

type hitsBench struct {
	svc  *service
	set  []*entry
	gens []*reqGen

	metricsDelta map[string]float64
	wall         float64
}

func setupHits(o options) (bench, error) {
	svc, err := startService(filepath.Join(o.workDir, "spill"), hitsCacheBytes)
	if err != nil {
		return nil, err
	}
	b := &hitsBench{svc: svc, set: workingSet(o.seed)}
	if err := b.prewarm(); err != nil {
		svc.close()
		return nil, err
	}
	for c := 0; c < serviceClients; c++ {
		b.gens = append(b.gens, newReqGen(o.seed, c, b.set))
	}
	return b, nil
}

// prewarm runs every working-set entry cold, two at a time, and keeps
// what the service answered as the reference for the timed phase.
func (b *hitsBench) prewarm() error {
	var wg sync.WaitGroup
	errs := make([]error, serviceClients)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(b.set) && errs[c] == nil; i += serviceClients {
				errs[c] = b.warm(c, b.set[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pre-warm: %w", err)
		}
	}
	return nil
}

func (b *hitsBench) warm(c int, e *entry) error {
	path := "/v1/simulate"
	if e.advise {
		path = "/v1/advise"
	}
	code, resp, err := b.svc.do(http.MethodPost, path, fmt.Sprintf("client%d", c), e.body, nil, 0, 0, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", path, code, resp)
	}
	var r struct {
		simResp
		Advice string `json:"advice"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err
	}
	if r.Cached {
		return fmt.Errorf("%s: pre-warm answered from cache: %s", path, e.body)
	}
	e.hash, e.advice = r.Hash, r.Advice
	if !e.advise {
		if e.digest, err = strconv.ParseUint(r.Digest, 0, 64); err != nil {
			return err
		}
	}
	return nil
}

func (b *hitsBench) measure(deadline time.Time, tr *tracer, m *measurement) {
	before, err := b.svc.scrape(tr)
	if err != nil {
		m.fail("metrics scrape: %v", err)
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c, g := range b.gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := fmt.Sprintf("client%d", c)
			for time.Now().Before(deadline) {
				b.request(client, g, tr, m)
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
	// Every timed request hit the pre-warmed set: no engine run.
	m.check(b.metricsDelta["iosimd_run_seconds_count"] == 0,
		"%v engine runs during the timed phase", b.metricsDelta["iosimd_run_seconds_count"])
}

// request sends and checks one request of g's stream.
func (b *hitsBench) request(client string, g *reqGen, tr *tracer, m *measurement) {
	kind, i := g.next()
	method, path, body, name := http.MethodPost, "", []byte(nil), ""
	var e *entry
	switch kind {
	case drawSimulate:
		e = b.set[i]
		path, body, name = "/v1/simulate", e.body, "http.simulate"
	case drawResult:
		e = b.set[i]
		method, path, name = http.MethodGet, "/v1/results/"+e.hash, "http.results"
	case drawAdvise:
		e = b.set[i]
		path, body, name = "/v1/advise", e.body, "http.advise"
	default:
		bad := malformed[kind]
		path, body, name = bad.path, []byte(bad.body), "http.malformed"
	}
	start := time.Now()
	code, resp, err := b.svc.do(method, path, client, body, tr, tr.newOp(), 0, name)
	d := time.Since(start)
	if err != nil {
		m.fail("%s %s: %v", method, path, err)
		return
	}
	var msg string
	if e != nil {
		msg = e.check(code, resp)
	} else {
		msg = checkMalformed(kind, code, resp)
	}
	if msg != "" {
		m.fail("%s %s: %s", method, path, msg)
		return
	}
	m.op(d, 1, 1)
}

// check verifies a hit on e: status 200 and a cached body matching the
// pre-warm answer. The first verified body is kept, and later hits
// must return it byte for byte.
func (e *entry) check(code int, resp []byte) string {
	if code != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", code, resp)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cached != nil {
		if !bytes.Equal(resp, e.cached) {
			return "cached body changed between hits"
		}
		return ""
	}
	var r struct {
		simResp
		Advice string `json:"advice"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return err.Error()
	}
	digest, _ := strconv.ParseUint(r.Digest, 0, 64)
	switch {
	case !r.Cached || r.Hash != e.hash:
		return fmt.Sprintf("cached=%v hash %s, want a cached answer for %s", r.Cached, r.Hash, e.hash)
	case e.advise && r.Advice != e.advice:
		return "advice differs from the pre-warm answer"
	case !e.advise && digest != e.digest:
		return fmt.Sprintf("digest %s, pre-warm answered %#016x", r.Digest, e.digest)
	}
	e.cached = append([]byte(nil), resp...)
	return ""
}

// checkMalformed verifies a malformed request's 400 names its error
// code and the offending field.
func checkMalformed(kind drawKind, code int, resp []byte) string {
	want := malformed[kind]
	var r struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			Field   string `json:"field"`
		} `json:"error"`
	}
	if code != http.StatusBadRequest || json.Unmarshal(resp, &r) != nil {
		return fmt.Sprintf("malformed request: status %d: %.200s", code, resp)
	}
	named := r.Error.Field == want.field || (r.Error.Field == "" && strings.Contains(r.Error.Message, want.field))
	if r.Error.Code != want.code || !named {
		return fmt.Sprintf("malformed request: %s/%q (%s), want %s naming %s", r.Error.Code, r.Error.Field, r.Error.Message, want.code, want.field)
	}
	return ""
}

func (b *hitsBench) layers(tr *tracer, out map[string]float64) error {
	serverLayers(b.metricsDelta, b.wall, b.svc.slots, out)
	return nil
}

func (b *hitsBench) verify(m *measurement) {}

func (b *hitsBench) close() { b.svc.close() }
