package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paragonio/internal/pablo"
)

// writeTestTrace builds a small on-disk SDDF trace.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	tr := pablo.NewTrace()
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpOpen, File: "f",
		Duration: time.Millisecond, Mode: "M_UNIX"})
	for i := 0; i < 20; i++ {
		tr.Record(pablo.Event{Node: i % 4, Op: pablo.OpRead, File: "f",
			Offset: int64(i) * 512, Size: 512,
			Start: time.Duration(i) * time.Second, Duration: 2 * time.Millisecond,
			Mode: "M_UNIX"})
	}
	tr.Record(pablo.Event{Node: 0, Op: pablo.OpWrite, File: "g",
		Offset: 0, Size: 1 << 20, Start: time.Minute, Duration: time.Second,
		Mode: "M_ASYNC"})
	path := filepath.Join(t.TempDir(), "t.sddf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := pablo.WriteTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadRoundTrip(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 22 {
		t.Fatalf("loaded %d events", tr.Len())
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.sddf")); err == nil {
		t.Fatal("missing file accepted")
	}
	// One read event in the compact binary (PIOB) and generic
	// self-describing (#SDDF-G) encodings: neither is a trace iotrace
	// reads, so both fail on the text codec's magic line.
	for name, data := range map[string]string{
		"binary": "PIOB\x01\x01\x01\x02\x00\x00d\x80\x94\xeb\xdc\x03\xc0\x84=\x00\x01\x01f\x01\x06M_UNIX",
		"generic": "#SDDF-G v1\nD 1 io-event node:i op:s file:s offset:i size:i start_ns:i dur_ns:i mode:s\n" +
			"R 1 1 \"read\" \"f\" 0 100 1000000000 1000000 \"M_UNIX\"\n",
	} {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(p); err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("%s: load error = %v, want bad magic", name, err)
		}
	}
}

func TestSubcommandsRun(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := summary(tr); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if err := cdf(tr, "read"); err != nil {
		t.Fatalf("cdf: %v", err)
	}
	if err := cdf(tr, "bogus"); err == nil {
		t.Fatal("cdf accepted bogus op")
	}
	if err := timeline(tr, "read"); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if err := timeline(tr, "seek"); err == nil {
		t.Fatal("timeline with no events should error")
	}
	if err := windows(tr, 10*time.Second); err != nil {
		t.Fatalf("windows: %v", err)
	}
	if err := windows(tr, 0); err == nil {
		t.Fatal("windows accepted zero width")
	}
	if err := regions(tr, "f", 1024); err != nil {
		t.Fatalf("regions: %v", err)
	}
	if err := regions(tr, "", 1024); err == nil {
		t.Fatal("regions without file accepted")
	}
	if err := regions(tr, "nosuch", 1024); err == nil {
		t.Fatal("regions accepted unknown file")
	}
	if err := advise(tr); err != nil {
		t.Fatalf("advise: %v", err)
	}
	if err := csv(tr); err != nil {
		t.Fatalf("csv: %v", err)
	}
	if err := replayCmd(tr, 4, 0, false); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

func TestTaxonomySubcommand(t *testing.T) {
	path := writeTestTrace(t)
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := taxonomy(tr); err != nil {
		t.Fatalf("taxonomy: %v", err)
	}
}
