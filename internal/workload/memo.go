package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"unsafe"

	"asdsim/internal/stats"
	"asdsim/internal/trace"
)

// MaterializedTrace is one thread's workload trace generated up front
// into a reusable in-memory form: exactly the records a cpu.Thread with
// the given instruction budget would consume, plus the generator's
// ground-truth stream-length histogram at that point. The records slice
// and histogram are immutable after Materialize returns, so any number
// of concurrent simulations may replay the same MaterializedTrace
// through private trace.SliceSource cursors.
type MaterializedTrace struct {
	// Records is the trace in consumption order.
	Records []trace.Record
	// TrueLengths is the generator's TrueLengths histogram snapshot
	// after producing Records — identical to what a live generator
	// driven by the same thread would hold at the end of the run.
	TrueLengths *stats.Histogram
	// Instructions is the total instruction count of the trace
	// (sum of Gap+1 over Records); it is >= the requested budget.
	Instructions uint64
}

// sizeBytes is the trace's footprint as a TraceCache holds it: the
// records' whole backing array (Materialize grows it by append, so its
// capacity runs past its length), the ground-truth histogram, and the
// cache slot around them. Allocator size-class rounding aside, this is
// what the heap holds per cached trace.
func (m *MaterializedTrace) sizeBytes() int64 {
	return int64(cap(m.Records))*int64(unsafe.Sizeof(trace.Record{})) +
		int64(m.TrueLengths.Buckets())*8 + slotOverheadBytes
}

// slotOverheadBytes is a cached trace's fixed cost beside its records
// and histogram buckets: the cache entry, the MaterializedTrace and
// histogram headers, the key's profile hash (64 hex digits) and the map
// slot (key and entry pointer).
const slotOverheadBytes = int64(unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(MaterializedTrace{}) +
	unsafe.Sizeof(stats.Histogram{}) + 2*sha256.Size + unsafe.Sizeof(traceKey{}) + unsafe.Sizeof(&cacheEntry{}))

// Materialize generates the trace a thread with the given per-thread
// instruction budget consumes: records are produced while the running
// instruction total (Gap+1 per record) is below budget, mirroring
// cpu.Thread's fetch condition exactly. The same (profile, seed,
// thread, budget) always yields byte-identical records.
func Materialize(prof Profile, seed uint64, thread int, budget uint64) (*MaterializedTrace, error) {
	g, err := NewGenerator(prof, seed, thread)
	if err != nil {
		return nil, err
	}
	// Pre-size from the profile's mean gap; the estimate only tunes
	// append growth.
	est := int(budget/(uint64(prof.MeanGap)+1)) + 16
	mt := &MaterializedTrace{Records: make([]trace.Record, 0, est)}
	for mt.Instructions < budget {
		rec, _ := g.Next() // generators never end
		mt.Records = append(mt.Records, rec)
		mt.Instructions += uint64(rec.Gap) + 1
	}
	mt.TrueLengths = g.TrueLengths.Clone()
	return mt, nil
}

// ProfileHash returns a stable content hash of the profile, so traces
// for user-registered profiles that reuse a name never collide with the
// built-in ones in a TraceCache.
func ProfileHash(prof Profile) string {
	b, err := json.Marshal(prof)
	if err != nil {
		// Profile is a tree of plain exported value fields; this cannot
		// fail for any constructible Profile.
		panic(fmt.Sprintf("workload: marshal profile: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// traceKey identifies one materialized trace: profile content, seed,
// thread and instruction budget — everything record generation depends
// on.
type traceKey struct {
	profile string
	seed    uint64
	thread  int
	budget  uint64
}

// cacheEntry is one cache slot. Generation runs under once so
// concurrent getters of the same key share a single materialization
// (and the cache lock is never held while generating).
type cacheEntry struct {
	key  traceKey
	once sync.Once
	mt   *MaterializedTrace
	err  error

	// LRU bookkeeping, guarded by the cache mutex. accounted marks
	// entries whose size has been added to the cache total.
	accounted  bool
	prev, next *cacheEntry
}

// TraceCacheStats is a point-in-time snapshot of cache effectiveness.
type TraceCacheStats struct {
	// Hits counts Gets served from an already-materialized trace;
	// Misses counts Gets that had to generate.
	Hits, Misses uint64
	// Evictions counts traces dropped by the LRU byte budget.
	Evictions uint64
	// Entries and Bytes describe current residency.
	Entries int
	Bytes   int64
}

// TraceCache memoizes materialized traces behind (profile hash, seed,
// thread, budget) keys, so a benchmark×mode×engine sweep generates each
// benchmark's workload once instead of once per cell. Bounded by bytes
// with least-recently-used eviction; safe for concurrent use. Evicted
// traces remain valid for callers already holding them (they are
// immutable), the cache merely drops its reference.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*cacheEntry
	// head is most recently used, tail least.
	head, tail *cacheEntry
	maxBytes   int64
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

// DefaultTraceCacheBytes bounds a default cache. Reuse is short-range:
// matrices are benchmark-major (every mode and variant of one benchmark
// before the next) and farm workers take cells in spec order, so all
// the Gets of one trace fall within a few cells of each other whatever
// the worker count, and a trace's reuse distance is one or two other
// traces. A 2M-instruction trace (the figures budget) holds 1.0-1.5
// MiB, so 8 MiB keeps five to eight of them, several times that
// distance, while a long-running server whose jobs each bring fresh
// seeds holds megabytes of never-reused traces instead of hundreds. A
// run that revisits a benchmark only after many others (figures all,
// figure after figure) regenerates its trace: 3-5 ms at 2M
// instructions, against tens of milliseconds for the cell.
const DefaultTraceCacheBytes = 8 << 20

// NewTraceCache returns a cache bounded to maxBytes (values <= 0 use
// DefaultTraceCacheBytes).
func NewTraceCache(maxBytes int64) *TraceCache {
	if maxBytes <= 0 {
		maxBytes = DefaultTraceCacheBytes
	}
	return &TraceCache{entries: make(map[traceKey]*cacheEntry), maxBytes: maxBytes}
}

// Get returns the materialized trace for (prof, seed, thread, budget),
// generating and caching it on first use. Concurrent Gets of the same
// key share one generation.
func (c *TraceCache) Get(prof Profile, seed uint64, thread int, budget uint64) (*MaterializedTrace, error) {
	key := traceKey{profile: ProfileHash(prof), seed: seed, thread: thread, budget: budget}

	c.mu.Lock()
	e := c.entries[key]
	fresh := e == nil
	if fresh {
		e = &cacheEntry{key: key}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
	}
	c.mu.Unlock()

	e.once.Do(func() { e.mt, e.err = Materialize(prof, seed, thread, budget) })

	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil {
		// Drop failed entries so a later Get can retry (e.g. after the
		// caller registers a fixed profile under the same content).
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		return nil, e.err
	}
	if c.entries[key] != e {
		// Evicted (or replaced) while this caller was waiting on the
		// generation; the trace itself is immutable and still valid, so
		// serve it without touching the LRU accounting.
		return e.mt, nil
	}
	if !e.accounted {
		e.accounted = true
		c.bytes += e.mt.sizeBytes()
	} else {
		c.unlink(e)
	}
	c.pushFront(e)
	c.evictLocked()
	return e.mt, nil
}

// Stats snapshots hit/miss counters and residency.
func (c *TraceCache) Stats() TraceCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return TraceCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.bytes}
}

// evictLocked drops least-recently-used accounted entries until the
// budget holds. The most recent entry always stays, so a single trace
// larger than the whole budget still caches (and evicts everything
// else).
func (c *TraceCache) evictLocked() {
	for c.bytes > c.maxBytes && c.tail != nil && c.tail != c.head {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.bytes -= e.mt.sizeBytes()
		c.evictions++
	}
}

// pushFront makes e the most recently used entry.
func (c *TraceCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list.
func (c *TraceCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
