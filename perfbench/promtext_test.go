package main

import (
	"net/http"
	"testing"
)

// TestPromDeltaOnRealScrape scrapes a live daemon before and after one
// malformed request and checks the parsed delta.
func TestPromDeltaOnRealScrape(t *testing.T) {
	svc, err := startService(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	before, err := svc.scrape(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := before["iosimd_cache_hits_total"]; !ok || v != 0 {
		t.Fatalf("iosimd_cache_hits_total = %v (present %v), want 0", v, ok)
	}
	if _, ok := before["iosimd_run_seconds_sum"]; !ok {
		t.Fatal("histogram _sum series missing")
	}
	bad := malformed[drawBadApp]
	code, _, err := svc.do(http.MethodPost, bad.path, "t", []byte(bad.body), nil, 0, 0, "")
	if err != nil || code != http.StatusBadRequest {
		t.Fatalf("malformed request: %d, %v", code, err)
	}
	after, err := svc.scrape(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(before, after)
	if got := d[`iosimd_requests_total{endpoint="advise",code="400"}`]; got != 1 {
		t.Errorf("advise 400 delta = %v, want 1", got)
	}
	if got := d["iosimd_run_seconds_count"]; got != 0 {
		t.Errorf("run count delta = %v, want 0", got)
	}
	out := map[string]float64{}
	serverLayers(d, 1, svc.slots, out)
	if out["server.run_s"] != 0 || out["server.cache_hits"] != 0 {
		t.Errorf("server layers from an idle delta: %v", out)
	}
}

func TestPromSamplesRejectsGarbage(t *testing.T) {
	if _, err := promSamples("metric_without_value\n"); err == nil {
		t.Error("line without a value parsed")
	}
	m, err := promSamples("# HELP x y\n# TYPE x counter\nx 3\ny{a=\"b\"} 1.5e3\n\n")
	if err != nil || m["x"] != 3 || m[`y{a="b"}`] != 1500 {
		t.Errorf("got %v, %v", m, err)
	}
}
