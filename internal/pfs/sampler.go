package pfs

import (
	"sort"
	"time"

	"paragonio/internal/sim"
)

// UtilSample is one periodic snapshot of the file system's servers — the
// second record stream Pablo-style instrumentation carries beside I/O
// events. It exposes the mechanisms the paper's results hinge on: token
// queue depth (the M_UNIX serialization of version B's seeks) and I/O
// node busy time.
type UtilSample struct {
	T time.Duration
	// IONodeBusy is each array's cumulative busy time at the sample.
	IONodeBusy []time.Duration
	// IONodeQueue is each I/O node's instantaneous request queue length.
	IONodeQueue []int
	// MetaQueue is the metadata service's instantaneous queue length.
	MetaQueue int
	// TokenQueue is the summed instantaneous queue length across all
	// file atomicity tokens.
	TokenQueue int
	// CacheDirty is each I/O node's instantaneous dirty-block count (the
	// write-behind queue depth). Nil when caching is disabled.
	CacheDirty []int
	// CacheHits and CacheMisses are the cumulative block-lookup totals
	// summed across all I/O-node caches at the sample (0 when caching is
	// disabled).
	CacheHits, CacheMisses uint64
	// ClientHits and ClientMisses are the client tier's cumulative
	// block-lookup totals at the sample (0 when the tier is disabled).
	ClientHits, ClientMisses uint64
	// ClientRecalls and ClientStaleAverted are the client tier's
	// cumulative coherence counters at the sample: lease recalls
	// delivered, and recalled blocks that were actually resident (stale
	// reads averted).
	ClientRecalls, ClientStaleAverted uint64
}

// Sampler periodically snapshots a file system from inside the
// simulation. It stops itself when it is the only live process left, so
// it extends the run by at most one interval past the application's end.
type Sampler struct {
	fs       *FileSystem
	interval time.Duration
	samples  []UtilSample
}

// NewSampler installs a sampling process on the file system's kernel.
// interval must be positive. Call before Kernel.Run.
func NewSampler(fs *FileSystem, interval time.Duration) *Sampler {
	if interval <= 0 {
		panic("pfs: sampler interval must be positive")
	}
	s := &Sampler{fs: fs, interval: interval}
	fs.k.Spawn("pfs-sampler", func(p *sim.Proc) {
		for {
			// Last one standing: the application is done.
			if fs.k.LiveProcs() <= 1 {
				return
			}
			p.Wait(interval)
			s.take(p.Now())
		}
	})
	return s
}

// take records one snapshot.
func (s *Sampler) take(now time.Duration) {
	sample := UtilSample{
		T:           now,
		IONodeBusy:  make([]time.Duration, len(s.fs.ios)),
		IONodeQueue: make([]int, len(s.fs.ios)),
		MetaQueue:   s.fs.meta.QueueLen(),
	}
	if s.fs.Caching() {
		sample.CacheDirty = make([]int, len(s.fs.ios))
	}
	for i, io := range s.fs.ios {
		sample.IONodeBusy[i] = io.array.Stats().Busy
		sample.IONodeQueue[i] = io.res.QueueLen()
		if io.cache != nil {
			cs := io.cache.Stats()
			sample.CacheDirty[i] = cs.Dirty
			sample.CacheHits += cs.Hits
			sample.CacheMisses += cs.Misses
		}
	}
	if s.fs.client != nil {
		cs := s.fs.client.Stats()
		sample.ClientHits = cs.Hits
		sample.ClientMisses = cs.Misses
		sample.ClientRecalls = cs.Recalls
		sample.ClientStaleAverted = cs.StaleAverted
	}
	// Deterministic iteration for reproducible traces: sum over sorted
	// file names.
	names := make([]string, 0, len(s.fs.files))
	for name := range s.fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sample.TokenQueue += s.fs.files[name].token.QueueLen()
	}
	s.samples = append(s.samples, sample)
}

// Samples returns the collected snapshots in time order.
func (s *Sampler) Samples() []UtilSample {
	return append([]UtilSample(nil), s.samples...)
}

// MaxTokenQueue returns the deepest token queue observed.
func (s *Sampler) MaxTokenQueue() int {
	var m int
	for _, sm := range s.samples {
		if sm.TokenQueue > m {
			m = sm.TokenQueue
		}
	}
	return m
}

// MaxMetaQueue returns the deepest metadata queue observed.
func (s *Sampler) MaxMetaQueue() int {
	var m int
	for _, sm := range s.samples {
		if sm.MetaQueue > m {
			m = sm.MetaQueue
		}
	}
	return m
}
