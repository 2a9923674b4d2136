package main

import "testing"

func TestRunValidation(t *testing.T) {
	if err := run("nosuch", "modes", "M_ASYNC", 8, 65536, 1<<20, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	err := run("strided-reload", "nosuch", "M_ASYNC", 8, 65536, 1<<20, 1)
	if err == nil {
		t.Fatal("unknown sweep accepted")
	}
	// The unknown-sweep error enumerates every sweep id, so a new sweep
	// that forgets to list itself fails here.
	want := `unknown sweep "nosuch" (valid: modes, request, ionodes, cache, clientcache, advisor, flush, faults, logtier)`
	if err.Error() != want {
		t.Fatalf("unknown-sweep error = %q, want %q", err, want)
	}
	if err := run("strided-reload", "modes", "M_BOGUS", 8, 65536, 1<<20, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunSmallSweep(t *testing.T) {
	if err := run("staging-write", "ionodes", "M_ASYNC", 8, 65536, 1<<20, 1); err != nil {
		t.Fatal(err)
	}
}
