// Package cache models the Power5+ cache hierarchy that filters processor
// references before they reach the memory controller: a write-back,
// write-allocate set-associative cache primitive plus a three-level
// hierarchy (L1D, shared L2, off-chip victim L3).
//
// The caches are passive structures — they answer hit/miss and track
// dirty state and evictions; all timing lives in the CPU and memory
// controller models.
package cache

import (
	"fmt"
	"math/bits"

	"asdsim/internal/mem"
)

// maxAssoc bounds associativity so a set's LRU recency order packs into
// one uint64 (4 bits per way).
const maxAssoc = 16

// Cache is one set-associative, write-back cache level with true-LRU
// replacement.
//
// Per-set replacement state is packed: order holds the set's way
// indices as nibbles, most-recently-used first, and valid/dirty are
// per-set way bitmasks. A lookup therefore touches only the tag array,
// and victim selection is pure bit arithmetic instead of a timestamp
// scan — the caches sit on the simulator's per-access hot path.
type Cache struct {
	name     string
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	setShift uint   // k when sets == 3<<k (the Power5+ 3-slice geometries), else 0
	assoc    int
	fullMask uint16
	ident    uint64 // identity recency permutation for this assoc

	tags  []uint64 // per way-slot (set-major): line tag (full line number)
	order []uint64 // per set: packed way permutation, MRU nibble first
	valid []uint16 // per set: valid-way bitmask
	dirty []uint16 // per set: dirty-way bitmask

	// Stats.
	Accesses uint64
	Hits     uint64
}

// New returns a cache of sizeBytes with the given associativity, using
// the global mem.LineSize. sizeBytes must be assoc*LineSize*2^k.
func New(name string, sizeBytes, assoc int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache %s: non-positive geometry", name))
	}
	if assoc > maxAssoc {
		panic(fmt.Sprintf("cache %s: assoc %d exceeds packed-LRU limit %d", name, assoc, maxAssoc))
	}
	lines := sizeBytes / mem.LineSize
	if lines*mem.LineSize != sizeBytes {
		panic(fmt.Sprintf("cache %s: size %d not a multiple of line size", name, sizeBytes))
	}
	sets := lines / assoc
	if sets*assoc != lines {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by assoc %d", name, lines, assoc))
	}
	c := &Cache{
		name:  name,
		sets:  sets,
		assoc: assoc,
		tags:  make([]uint64, lines),
		order: make([]uint64, sets),
		valid: make([]uint16, sets),
		dirty: make([]uint16, sets),
	}
	if sets&(sets-1) == 0 {
		c.setMask = uint64(sets - 1)
	} else if third := sets / 3; sets%3 == 0 && third&(third-1) == 0 {
		c.setShift = uint(bits.TrailingZeros(uint(third)))
	}
	c.fullMask = uint16(1)<<assoc - 1
	for w := 0; w < assoc; w++ {
		c.ident |= uint64(w) << (4 * w)
	}
	for s := range c.order {
		c.order[s] = c.ident
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.assoc * mem.LineSize }

// setOf maps a line to its set by modulo, which accommodates the
// Power5+'s non-power-of-two L2 (three 640 KB slices, 1536 sets total);
// power-of-two geometries take the mask fast path (no hardware divide).
// The 3-slice geometries (sets = 3*2^k, both the L2 and L3 defaults)
// decompose l mod 3*2^k == (l>>k mod 3)<<k | l&(2^k-1), turning the
// runtime divide into a shift plus a constant modulo the compiler
// strength-reduces to a multiply. All three paths compute the same
// value.
func (c *Cache) setOf(l mem.Line) int {
	if c.setMask != 0 {
		return int(uint64(l) & c.setMask)
	}
	if c.setShift != 0 {
		q := uint64(l) >> c.setShift
		r := uint64(l) & (1<<c.setShift - 1)
		return int((q%3)<<c.setShift | r)
	}
	return int(uint64(l) % uint64(c.sets))
}

// find returns the set and way of line, or way -1. The tag is compared
// before the valid bit so a probe normally touches only the tag array
// (a zero tag can false-match a probe for line 0, which the valid check
// then rejects).
func (c *Cache) find(l mem.Line) (set, way int) {
	set = c.setOf(l)
	base := set * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == uint64(l) && c.valid[set]>>w&1 == 1 {
			return set, w
		}
	}
	return set, -1
}

// touchMRU moves way to the front of set's recency order.
func (c *Cache) touchMRU(set, way int) {
	ord := c.order[set]
	if int(ord&0xF) == way {
		return
	}
	p := c.posOf(ord, way)
	low := ord & (1<<(4*p) - 1)
	c.order[set] = ord&^(1<<(4*(p+1))-1) | low<<4 | uint64(way)
}

// posOf returns the nibble position of way within ord.
func (c *Cache) posOf(ord uint64, way int) uint {
	for p := uint(0); ; p++ {
		if int(ord>>(4*p)&0xF) == way {
			return p
		}
	}
}

// Lookup probes for line; on a hit it refreshes LRU state and, if store,
// marks the line dirty. It counts toward the hit/access statistics.
func (c *Cache) Lookup(l mem.Line, store bool) bool {
	c.Accesses++
	set, way := c.find(l)
	if way < 0 {
		return false
	}
	c.Hits++
	c.touchMRU(set, way)
	if store {
		c.dirty[set] |= 1 << way
	}
	return true
}

// Contains reports presence without disturbing LRU state or statistics.
func (c *Cache) Contains(l mem.Line) bool {
	_, way := c.find(l)
	return way >= 0
}

// Victim describes a line evicted by an Insert.
type Victim struct {
	Line  mem.Line
	Dirty bool
}

// Insert places line into the cache (MRU position), returning the evicted
// victim if any. Inserting a line already present just refreshes its LRU
// state (and ORs in dirty).
func (c *Cache) Insert(l mem.Line, dirty bool) (Victim, bool) {
	set := c.setOf(l)
	base := set * c.assoc
	vm := c.valid[set]
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == uint64(l) && vm>>w&1 == 1 {
			c.touchMRU(set, w)
			if dirty {
				c.dirty[set] |= 1 << w
			}
			return Victim{}, false
		}
	}
	// Victim: the first invalid way, else the set's LRU way.
	var way int
	var v Victim
	evicted := false
	if vm != c.fullMask {
		way = bits.TrailingZeros16(^vm & c.fullMask)
	} else {
		way = int(c.order[set] >> (4 * (c.assoc - 1)) & 0xF)
		v = Victim{Line: mem.Line(c.tags[base+way]), Dirty: c.dirty[set]>>way&1 == 1}
		evicted = true
	}
	c.tags[base+way] = uint64(l)
	c.valid[set] |= 1 << way
	if dirty {
		c.dirty[set] |= 1 << way
	} else {
		c.dirty[set] &^= 1 << way
	}
	c.touchMRU(set, way)
	return v, evicted
}

// InsertAbsent is Insert for lines the caller has proven are not in
// the cache (a lookup just missed, or a structural invariant rules
// presence out — e.g. victim-cache exclusivity). It skips Insert's
// presence scan, going straight to victim selection: O(1) instead of
// O(assoc). Inserting a line that IS present corrupts the set (two
// ways with one tag), so callers must hold a real absence proof.
//
//asd:hotpath
func (c *Cache) InsertAbsent(l mem.Line, dirty bool) (Victim, bool) {
	set := c.setOf(l)
	base := set * c.assoc
	vm := c.valid[set]
	var way int
	var v Victim
	evicted := false
	if vm != c.fullMask {
		way = bits.TrailingZeros16(^vm & c.fullMask)
	} else {
		way = int(c.order[set] >> (4 * (c.assoc - 1)) & 0xF)
		v = Victim{Line: mem.Line(c.tags[base+way]), Dirty: c.dirty[set]>>way&1 == 1}
		evicted = true
	}
	c.tags[base+way] = uint64(l)
	c.valid[set] |= 1 << way
	if dirty {
		c.dirty[set] |= 1 << way
	} else {
		c.dirty[set] &^= 1 << way
	}
	c.touchMRU(set, way)
	return v, evicted
}

// InsertLRU places line into the LRU position of its set (used for
// low-confidence fills). Behaviour otherwise matches Insert.
func (c *Cache) InsertLRU(l mem.Line, dirty bool) (Victim, bool) {
	v, ev := c.Insert(l, dirty)
	if set, way := c.find(l); way >= 0 {
		// Demote from MRU (where Insert put it) to LRU: remove its
		// nibble and re-append at the back.
		ord := c.order[set]
		p := c.posOf(ord, way)
		top := c.assoc - 1
		keepLow := ord & (1<<(4*p) - 1)
		mid := ord >> (4 * (p + 1)) << (4 * p) // nibbles above p shift down
		mid &= 1<<(4*top) - 1
		c.order[set] = keepLow | mid&^(1<<(4*p)-1) | uint64(way)<<(4*top)
	}
	return v, ev
}

// Invalidate removes line if present, returning whether it was present
// and dirty.
func (c *Cache) Invalidate(l mem.Line) (present, dirty bool) {
	set, way := c.find(l)
	if way < 0 {
		return false, false
	}
	dirty = c.dirty[set]>>way&1 == 1
	c.valid[set] &^= 1 << way
	return true, dirty
}

// HitRate returns hits/accesses (0 when unused).
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// Reset clears contents and statistics, leaving the cache
// indistinguishable from a New one by any sequence of operations.
// Only the per-set masks need clearing: stale tags are rejected by the
// valid mask, and the stale recency orders are never consulted. A
// victim is taken from the recency order only when every way of its
// set is valid, and each valid way was moved to the MRU (or LRU) end
// when it was inserted after the reset, so by then the order depends
// on post-reset operations alone.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.dirty)
	c.Accesses = 0
	c.Hits = 0
}
