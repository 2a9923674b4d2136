package server

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
)

// hashRe matches the keys ResultCache accepts: a result hash as produced
// by experiments.ConfigKey, optionally namespaced by an endpoint prefix
// ("advise/<hash>"). Restricting the alphabet keeps spill paths safe.
var hashRe = regexp.MustCompile(`^(?:[a-z]+/)?[0-9a-f]{16}$`)

// versionMarker is the spill-directory file recording which ConfigKey
// canonicalisation produced the artifacts inside. A daemon booting on a
// directory whose marker does not match its own key version purges the
// stale artifacts — the hashes would never match a fresh request anyway.
const versionMarker = "VERSION"

// ResultCache is the daemon's content-addressed result store: finished
// response bodies keyed by the canonical hash of the request
// configuration, held in an in-memory LRU bounded by a byte budget, with
// write-through spill to disk. The spill directory doubles as a
// warm-start index: on construction the cache scans it, revalidates the
// artifacts against the ConfigKey version marker, and indexes every
// surviving entry — so a restarted daemon serves yesterday's grid from
// disk instead of re-simulating it.
type ResultCache struct {
	budget   int64
	spillDir string // "" disables disk spill

	mu      sync.Mutex
	bytes   int64
	order   *list.List // front = most recent
	entries map[string]*list.Element
	spilled map[string]struct{} // keys with an on-disk artifact

	// Optional observability hooks (nil-safe).
	onHit, onMiss, onEvict, onSpillHit func()
	onBytes, onEntries, onSpilled      func(int64)
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewResultCache builds a cache with the given in-memory byte budget.
// A non-empty spillDir enables write-through disk spill; the directory
// is created if missing, and any artifacts already present from a
// previous daemon run are revalidated against version and indexed for
// warm-start serving. budget < 1 disables in-memory caching (everything
// lives on disk only, if a spillDir is set).
func NewResultCache(budget int64, spillDir, version string) (*ResultCache, error) {
	c := &ResultCache{
		budget:   budget,
		spillDir: spillDir,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		spilled:  make(map[string]struct{}),
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: result cache spill dir: %w", err)
		}
		if err := c.warmStart(version); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// warmStart rebuilds the spill index from a populated directory. A
// missing or mismatched version marker invalidates every artifact: the
// ConfigKey canonicalisation changed, so the hashes are unreachable.
func (c *ResultCache) warmStart(version string) error {
	marker := filepath.Join(c.spillDir, versionMarker)
	prev, err := os.ReadFile(marker)
	fresh := err != nil || strings.TrimSpace(string(prev)) != version
	names, err := filepath.Glob(filepath.Join(c.spillDir, "*.json"))
	if err != nil {
		return fmt.Errorf("server: result cache warm start: %w", err)
	}
	for _, p := range names {
		if fresh {
			_ = os.Remove(p) // stale key version; hash can never match
			continue
		}
		key, ok := keyFromSpillName(filepath.Base(p))
		if !ok {
			continue // foreign file; leave it alone, don't serve it
		}
		c.spilled[key] = struct{}{}
	}
	if fresh {
		if err := os.WriteFile(marker, []byte(version+"\n"), 0o644); err != nil {
			return fmt.Errorf("server: result cache version marker: %w", err)
		}
	}
	return nil
}

// SpilledLen returns the number of keys with an on-disk artifact —
// after boot, the warm-start inventory.
func (c *ResultCache) SpilledLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spilled)
}

// Get returns the cached body for key, consulting memory first and then
// the spill index. A disk hit is promoted back into memory. The
// returned slice must not be modified.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		body := el.Value.(*cacheEntry).body
		c.mu.Unlock()
		if c.onHit != nil {
			c.onHit()
		}
		return body, true
	}
	_, onDisk := c.spilled[key]
	c.mu.Unlock()
	if onDisk {
		if body, err := os.ReadFile(c.spillPath(key)); err == nil {
			c.putMem(key, body) // promote; the artifact is already on disk
			if c.onSpillHit != nil {
				c.onSpillHit()
			}
			if c.onHit != nil {
				c.onHit()
			}
			return body, true
		}
	}
	if c.onMiss != nil {
		c.onMiss()
	}
	return nil, false
}

// Put stores body under key: write-through to the spill directory, then
// into the in-memory LRU, evicting least-recently-used entries until
// the byte budget holds. Oversized bodies (> budget) live on disk only.
// A key already on disk is not spilled again: keys are content
// addresses, so the artifact there holds the same bytes.
func (c *ResultCache) Put(key string, body []byte) {
	if !hashRe.MatchString(key) {
		return
	}
	c.mu.Lock()
	_, onDisk := c.spilled[key]
	c.mu.Unlock()
	if !onDisk && c.spill(key, body) {
		c.mu.Lock()
		c.spilled[key] = struct{}{}
		c.observeLocked()
		c.mu.Unlock()
	}
	c.putMem(key, body)
}

// putMem inserts into the in-memory LRU only — the Put path after the
// write-through spill, and the Get promotion path (where the artifact
// is already on disk and re-spilling it would be wasted I/O).
func (c *ResultCache) putMem(key string, body []byte) {
	if !hashRe.MatchString(key) || int64(len(body)) > c.budget {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok { // refresh
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(body))
	}
	c.evictLocked()
	c.observeLocked()
	c.mu.Unlock()
}

// Len returns the number of in-memory entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the in-memory footprint.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// observeLocked pushes the memory footprint to the gauge hooks.
func (c *ResultCache) observeLocked() {
	if c.onBytes != nil {
		c.onBytes(c.bytes)
	}
	if c.onEntries != nil {
		c.onEntries(int64(c.order.Len()))
	}
	if c.onSpilled != nil {
		c.onSpilled(int64(len(c.spilled)))
	}
}

// evictLocked drops LRU entries until the budget holds. Spill is
// write-through, so eviction only sheds memory — the artifact is
// already on disk and stays reachable through the spill index.
func (c *ResultCache) evictLocked() {
	for c.bytes > c.budget && c.order.Len() > 0 {
		el := c.order.Back()
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.body))
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// spill writes an artifact to the spill directory through a temp file
// of its own, renamed into place, so a concurrent reader never sees a
// torn file even while several Puts of one key race. The temp name does
// not end in ".json", so warm start never indexes a leftover one.
// Reports whether the artifact landed on disk; always false without a
// spill dir.
func (c *ResultCache) spill(key string, body []byte) bool {
	if c.spillDir == "" {
		return false
	}
	f, err := os.CreateTemp(c.spillDir, "spill-*.tmp")
	if err != nil {
		return false
	}
	_, err = f.Write(body)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.spillPath(key))
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return false
	}
	return true
}

// spillPath maps a key to its on-disk artifact. Namespaced keys
// ("advise/<hash>") flatten to "advise-<hash>.json".
func (c *ResultCache) spillPath(key string) string {
	name := key
	for i := range name {
		if name[i] == '/' {
			name = name[:i] + "-" + name[i+1:]
			break
		}
	}
	return filepath.Join(c.spillDir, name+".json")
}

// keyFromSpillName inverts spillPath for the warm-start scan:
// "advise-<hash>.json" → "advise/<hash>", "<hash>.json" → "<hash>".
// Only names that round-trip to a valid cache key are accepted.
func keyFromSpillName(name string) (string, bool) {
	stem, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	key := stem
	if i := strings.IndexByte(stem, '-'); i >= 0 {
		key = stem[:i] + "/" + stem[i+1:]
	}
	if !hashRe.MatchString(key) {
		return "", false
	}
	return key, true
}
