package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) string { return fmt.Sprintf("%016x", i) }

func TestResultCachePutGet(t *testing.T) {
	c, err := NewResultCache(1<<20, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte(`{"a":1}`))
	got, ok := c.Get(key(1))
	if !ok || !bytes.Equal(got, []byte(`{"a":1}`)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Error("phantom hit")
	}
	// Refresh replaces the body and adjusts the footprint.
	c.Put(key(1), []byte(`{"a":2,"b":3}`))
	got, _ = c.Get(key(1))
	if !bytes.Equal(got, []byte(`{"a":2,"b":3}`)) {
		t.Errorf("refreshed Get = %q", got)
	}
	if c.Bytes() != int64(len(`{"a":2,"b":3}`)) {
		t.Errorf("bytes = %d after refresh", c.Bytes())
	}
}

func TestResultCacheRejectsBadKeys(t *testing.T) {
	c, err := NewResultCache(1<<20, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "nothex", "../../etc/passwd", "ADVISE/0011223344556677", "advise/short"} {
		c.Put(bad, []byte("x"))
	}
	if c.Len() != 0 {
		t.Errorf("bad keys entered the cache: len=%d", c.Len())
	}
	c.Put("advise/0011223344556677", []byte("x"))
	if c.Len() != 1 {
		t.Error("namespaced hash key rejected")
	}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c, err := NewResultCache(100, "", "v1")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 40)
	c.Put(key(1), body)
	c.Put(key(2), body)
	c.Get(key(1)) // touch 1 so 2 is the LRU victim
	c.Put(key(3), body)
	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU victim survived")
	}
	for _, k := range []string{key(1), key(3)} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted out of order", k)
		}
	}
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Errorf("footprint %d bytes / %d entries, want 80/2", c.Bytes(), c.Len())
	}
}

func TestResultCacheDiskSpill(t *testing.T) {
	dir := t.TempDir()
	c, err := NewResultCache(100, dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 60)
	c.Put(key(1), body)
	c.Put(key(2), body) // evicts 1 to disk
	if _, err := os.Stat(filepath.Join(dir, key(1)+".json")); err != nil {
		t.Fatalf("evicted entry not spilled: %v", err)
	}
	// A disk hit is served and promoted back into memory (evicting 2).
	if got, ok := c.Get(key(1)); !ok || len(got) != 60 {
		t.Fatalf("disk hit failed: %v, %d bytes", ok, len(got))
	}
	c.mu.Lock()
	_, inMem := c.entries[key(1)]
	c.mu.Unlock()
	if !inMem {
		t.Error("disk hit not promoted to memory")
	}

	// Oversized bodies bypass memory and go straight to disk.
	big := make([]byte, 500)
	c.Put(key(7), big)
	if _, ok := c.entries[key(7)]; ok {
		t.Error("oversized body entered memory")
	}
	if got, ok := c.Get(key(7)); !ok || len(got) != 500 {
		t.Errorf("oversized body not readable from spill: %v, %d", ok, len(got))
	}

	// Namespaced keys flatten to a safe filename.
	c2, err := NewResultCache(1, dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	c2.Put("advise/00112233aabbccdd", []byte("advice"))
	if _, err := os.Stat(filepath.Join(dir, "advise-00112233aabbccdd.json")); err != nil {
		t.Errorf("namespaced spill artifact missing: %v", err)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c, err := NewResultCache(1<<12, t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := key(j % 32)
				if j%3 == 0 {
					c.Put(k, bytes.Repeat([]byte("x"), 64))
				} else {
					c.Get(k)
				}
			}
		}(i)
	}
	wg.Wait()
	if c.Bytes() > 1<<12 {
		t.Errorf("budget exceeded: %d", c.Bytes())
	}
}

// TestResultCacheSpillNeverTorn races the first Puts of fresh keys, each
// key Put by every writer at once, against a Get loop. With a zero
// memory budget every Get reads the spill file, so a Put that renamed a
// half-written temp file into place would show up as a short body.
func TestResultCacheSpillNeverTorn(t *testing.T) {
	const writers, keys, size = 4, 24, 256 << 10
	c, err := NewResultCache(0, t.TempDir(), "v1")
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), size)
	var done atomic.Bool
	var gets, short atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				for k := 0; k < keys; k++ {
					if got, ok := c.Get(key(k)); ok {
						gets.Add(1)
						if len(got) != size {
							short.Add(1)
						}
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				c.Put(key(k), body)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if n := short.Load(); n > 0 {
		t.Fatalf("%d of %d spill reads returned a short body", n, gets.Load())
	}
	for k := 0; k < keys; k++ {
		if got, ok := c.Get(key(k)); !ok || len(got) != size {
			t.Fatalf("key %d after the race: ok=%v, %d bytes", k, ok, len(got))
		}
	}
	names, err := filepath.Glob(filepath.Join(c.spillDir, "*.tmp"))
	if err != nil || len(names) != 0 {
		t.Fatalf("temp files left behind: %v (%v)", names, err)
	}
}
