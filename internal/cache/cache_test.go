package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"asdsim/internal/mem"
)

func TestNewGeometry(t *testing.T) {
	c := New("t", 1024, 2) // 8 lines, 4 sets
	if c.Sets() != 4 || c.Assoc() != 2 || c.SizeBytes() != 1024 {
		t.Errorf("geometry: sets=%d assoc=%d size=%d", c.Sets(), c.Assoc(), c.SizeBytes())
	}
	if c.Name() != "t" {
		t.Errorf("Name = %q", c.Name())
	}
}

func TestNewPanics(t *testing.T) {
	cases := map[string]func(){
		"zero size":    func() { New("x", 0, 1) },
		"zero assoc":   func() { New("x", 1024, 0) },
		"ragged":       func() { New("x", 1000, 2) },
		"indivisible ": func() { New("x", 5*128, 2) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New("t", 1024, 2)
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after insert")
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Errorf("stats: acc=%d hits=%d", c.Accesses, c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", 2*128*4, 2) // 4 sets, 2 ways
	// Lines 0, 4, 8 all map to set 0 (sets=4).
	c.Insert(0, false)
	c.Insert(4, false)
	c.Lookup(0, false) // 0 becomes MRU; 4 is LRU
	v, ev := c.Insert(8, false)
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v (ev=%v), want line 4", v, ev)
	}
	if !c.Contains(0) || !c.Contains(8) || c.Contains(4) {
		t.Error("wrong residency after eviction")
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New("t", 2*128*4, 2)
	c.Insert(0, false)
	c.Insert(4, false)
	c.Insert(0, true) // refresh 0 as MRU and dirty
	v, ev := c.Insert(8, false)
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v, want 4", v)
	}
	inv, dirty := c.Invalidate(0)
	if !inv || !dirty {
		t.Error("line 0 should be present and dirty")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New("t", 128*2, 1) // 2 sets, direct-mapped
	c.Insert(0, true)
	v, ev := c.Insert(2, false) // same set 0
	if !ev || v.Line != 0 || !v.Dirty {
		t.Fatalf("victim = %+v ev=%v, want dirty line 0", v, ev)
	}
}

func TestStoreMarksDirty(t *testing.T) {
	c := New("t", 128*4, 2)
	c.Insert(1, false)
	c.Lookup(1, true)
	_, dirty := c.Invalidate(1)
	if !dirty {
		t.Error("store hit should dirty the line")
	}
}

func TestInvalidateMissing(t *testing.T) {
	c := New("t", 128*4, 2)
	if present, _ := c.Invalidate(9); present {
		t.Error("invalidate of absent line reported present")
	}
}

func TestInsertLRU(t *testing.T) {
	c := New("t", 2*128*4, 2) // 4 sets 2 ways
	c.Insert(0, false)
	c.InsertLRU(4, false) // 4 goes to LRU slot despite being newest
	v, ev := c.Insert(8, false)
	if !ev || v.Line != 4 {
		t.Fatalf("evicted %v, want 4 (the LRU-inserted line)", v)
	}
}

func TestReset(t *testing.T) {
	c := New("t", 128*4, 2)
	c.Insert(1, true)
	c.Lookup(1, false)
	c.Reset()
	if c.Accesses != 0 || c.Hits != 0 || c.Contains(1) {
		t.Error("Reset incomplete")
	}
}

// Property: a cache never holds more distinct lines than its capacity,
// and a line just inserted is always resident.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New("t", 128*16, 4) // 16-line capacity
		for _, l := range lines {
			line := mem.Line(l % 256)
			c.Insert(line, false)
			if !c.Contains(line) {
				return false
			}
		}
		count := 0
		for l := mem.Line(0); l < 256; l++ {
			if c.Contains(l) {
				count++
			}
		}
		return count <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyBasicWalk(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 1 << 10, L1Assoc: 2, L1Lat: 2,
		L2Size: 4 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	r := h.Access(100, false, 0)
	if r.Level != Memory {
		t.Fatalf("first access level = %v, want Memory", r.Level)
	}
	if h.DemandMisses != 1 {
		t.Errorf("DemandMisses = %d", h.DemandMisses)
	}
	h.Fill(100, false)
	r = h.Access(100, false, 0)
	if r.Level != LevelL1 || r.Latency != 2 {
		t.Errorf("after fill: level=%v lat=%d", r.Level, r.Latency)
	}
}

func TestHierarchyL2HitPromotesToL1(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2, // 4 lines
		L2Size: 4 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	h.Fill(1, false)
	// Evict line 1 from the 4-line L1 by filling 4 conflicting lines
	// (sets=2, so lines 3,5,7,9 map to set 1; line 1 is in set 1).
	for _, l := range []mem.Line{3, 5, 7, 9} {
		h.Fill(l, false)
	}
	if h.L1.Contains(1) {
		t.Fatal("line 1 should have been evicted from L1")
	}
	r := h.Access(1, false, 0)
	if r.Level != LevelL2 {
		t.Fatalf("level = %v, want L2", r.Level)
	}
	if !h.L1.Contains(1) {
		t.Error("L2 hit should refill L1")
	}
}

func TestHierarchyVictimL3(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2,
		L2Size: 1 << 10, L2Assoc: 2, L2Lat: 13, // 8 lines, 4 sets
		L3Size: 16 << 10, L3Assoc: 4, L3Lat: 90,
	})
	h.Fill(0, false)
	// Force line 0 out of L2: fill two more lines mapping to L2 set 0.
	h.Fill(4, false)
	h.Fill(8, false)
	if h.L2.Contains(0) {
		t.Fatal("line 0 should have left L2")
	}
	if !h.L3.Contains(0) {
		t.Fatal("L2 victim should land in L3")
	}
	r := h.Access(0, false, 0)
	if r.Level != LevelL3 {
		t.Fatalf("level = %v, want L3", r.Level)
	}
	if h.L3.Contains(0) {
		t.Error("L3 hit should remove the line from L3 (victim cache)")
	}
	if !h.L2.Contains(0) || !h.L1.Contains(0) {
		t.Error("L3 hit should promote into L2 and L1")
	}
}

func TestHierarchyDirtyWriteback(t *testing.T) {
	h := NewHierarchy(Config{
		L1Size: 512, L1Assoc: 2, L1Lat: 2,
		L2Size: 1 << 10, L2Assoc: 2, L2Lat: 13,
		L3Size: 1 << 10, L3Assoc: 2, L3Lat: 90, // tiny L3: 8 lines
	})
	h.Fill(0, true) // dirty fill (store miss)
	// Push 0 out of L2 into L3, then out of L3.
	var wbs []mem.Line
	for _, l := range []mem.Line{4, 8, 12, 16} {
		wbs = append(wbs, h.Fill(l, false)...)
	}
	found := false
	for _, wb := range wbs {
		if wb == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("dirty line 0 never written back; wbs=%v", wbs)
	}
	if h.WritebacksToMemory == 0 {
		t.Error("WritebacksToMemory not counted")
	}
}

func TestHierarchyFillL2Only(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.FillL2Only(7)
	if h.L1.Contains(7) {
		t.Error("FillL2Only touched L1")
	}
	if !h.L2.Contains(7) {
		t.Error("FillL2Only missed L2")
	}
}

func TestHierarchyContainsAndReset(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(3, false)
	if !h.Contains(3) {
		t.Error("Contains(3) false after fill")
	}
	h.Reset()
	if h.Contains(3) || h.DemandMisses != 0 {
		t.Error("Reset incomplete")
	}
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelL3.String() != "L3" || Memory.String() != "Memory" {
		t.Error("Level strings wrong")
	}
	if Level(9).String() != "Level?" {
		t.Error("unknown level string")
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	if h.L1.SizeBytes() != 32<<10 || h.L2.SizeBytes() != 1920<<10 || h.L3.SizeBytes() != 36<<20 {
		t.Errorf("sizes: %d %d %d", h.L1.SizeBytes(), h.L2.SizeBytes(), h.L3.SizeBytes())
	}
}

func BenchmarkHierarchyAccessHit(b *testing.B) {
	h := NewHierarchy(DefaultConfig())
	h.Fill(1, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Access(1, false, 0)
	}
}

// InsertAbsent must behave exactly like Insert whenever its absence
// precondition holds: drive two identical caches with a pseudo-random
// line stream, inserting through Insert on one and (absence-checked)
// InsertAbsent on the other, and require identical victims and final
// residency. The 12-set geometry exercises the 3*2^k set decomposition
// alongside the divide path correctness proven below.
func TestInsertAbsentMatchesInsert(t *testing.T) {
	a := New("a", 12*128*4, 4) // 12 sets = 3*2^2, 4 ways
	b := New("b", 12*128*4, 4)
	rng := uint64(1)
	for i := 0; i < 4096; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		l := mem.Line(rng >> 33 & 127) // 128 hot lines -> heavy set conflict
		dirty := rng>>32&1 == 1
		va, eva := a.Insert(l, dirty)
		var vb Victim
		var evb bool
		if b.Contains(l) {
			vb, evb = b.Insert(l, dirty) // refresh path; InsertAbsent forbidden
		} else {
			vb, evb = b.InsertAbsent(l, dirty)
		}
		if va != vb || eva != evb {
			t.Fatalf("step %d line %d: Insert -> (%+v,%v), InsertAbsent path -> (%+v,%v)", i, l, va, eva, vb, evb)
		}
	}
	for l := mem.Line(0); l < 128; l++ {
		if a.Contains(l) != b.Contains(l) {
			t.Fatalf("residency diverges at line %d", l)
		}
		pa, da := a.Invalidate(l)
		pb, db := b.Invalidate(l)
		if pa != pb || da != db {
			t.Fatalf("dirty state diverges at line %d", l)
		}
	}
}

// The three setOf paths (power-of-two mask, 3*2^k decomposition, plain
// modulo) must agree; exercised via residency in same-set geometries.
func TestSetOfPathsAgree(t *testing.T) {
	// sets=12 takes the 3*2^k path; an equivalent plain-modulo geometry
	// is forced by a 5-slice set count (sets=20 is neither 2^k nor
	// 3*2^k). Both must place line l in set l%sets: a direct-mapped
	// cache then evicts exactly on same-set collision.
	for _, sets := range []int{12, 20} {
		c := New("t", sets*128, 1)
		for l := 0; l < 4*sets; l++ {
			v, ev := c.Insert(mem.Line(l), false)
			if l >= sets {
				if !ev || int(v.Line) != l-sets {
					t.Fatalf("sets=%d: inserting %d evicted %+v (ev=%v), want %d", sets, l, v, ev, l-sets)
				}
			} else if ev {
				t.Fatalf("sets=%d: unexpected eviction %+v at line %d", sets, v, l)
			}
		}
	}
}

// A Reset cache must be indistinguishable from a New one: after a
// random history that leaves stale tags, dirty bits and shuffled
// recency orders behind, Reset, then drive it and a New cache of the
// same geometry with one random operation sequence and require every
// return value to match step for step. Probes concentrate on a few
// sets (line 0 among them, which a zero tag could false-match) so every
// set fills and LRU victims come from the recency orders.
func TestResetMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	for _, g := range []struct {
		name        string
		size, assoc int
	}{
		{"L1", cfg.L1Size, cfg.L1Assoc},
		{"L2", cfg.L2Size, cfg.L2Assoc},
		{"L3", cfg.L3Size, cfg.L3Assoc},
	} {
		t.Run(g.name, func(t *testing.T) {
			used := New(g.name, g.size, g.assoc)
			sets := used.Sets()
			hot := []int{0, 1, sets / 2, sets - 1}
			pool := make([]mem.Line, 0, len(hot)*(2*g.assoc+2))
			for _, s := range hot {
				for k := 0; k < 2*g.assoc+2; k++ {
					pool = append(pool, mem.Line(s+k*sets))
				}
			}
			rng := uint64(7)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng >> 33 % uint64(n))
			}
			for i := 0; i < 4000; i++ {
				used.InsertLRU(pool[next(len(pool))], next(2) == 1)
				used.Insert(pool[next(len(pool))], next(2) == 1)
				used.Lookup(pool[next(len(pool))], next(2) == 1)
				if next(4) == 0 {
					used.Invalidate(pool[next(len(pool))])
				}
			}
			used.Reset()
			fresh := New(g.name, g.size, g.assoc)

			for i := 0; i < 20000; i++ {
				l, flag := pool[next(len(pool))], next(2) == 1
				var a, b any
				switch op := next(6); op {
				case 0:
					a, b = used.Lookup(l, flag), fresh.Lookup(l, flag)
				case 1:
					a, b = used.Contains(l), fresh.Contains(l)
				case 2:
					va, eva := used.Insert(l, flag)
					vb, evb := fresh.Insert(l, flag)
					a, b = [2]any{va, eva}, [2]any{vb, evb}
				case 3:
					if fresh.Contains(l) || used.Contains(l) {
						a, b = used.Contains(l), fresh.Contains(l)
						break // InsertAbsent needs an absence proof
					}
					va, eva := used.InsertAbsent(l, flag)
					vb, evb := fresh.InsertAbsent(l, flag)
					a, b = [2]any{va, eva}, [2]any{vb, evb}
				case 4:
					va, eva := used.InsertLRU(l, flag)
					vb, evb := fresh.InsertLRU(l, flag)
					a, b = [2]any{va, eva}, [2]any{vb, evb}
				case 5:
					pa, da := used.Invalidate(l)
					pb, db := fresh.Invalidate(l)
					a, b = [2]bool{pa, da}, [2]bool{pb, db}
				}
				if a != b {
					t.Fatalf("step %d line %d: reset cache -> %v, new cache -> %v", i, l, a, b)
				}
			}
			if used.Accesses != fresh.Accesses || used.Hits != fresh.Hits {
				t.Fatalf("stats: reset %d/%d, new %d/%d", used.Hits, used.Accesses, fresh.Hits, fresh.Accesses)
			}
		})
	}
}

// A Reset hierarchy must match a NewHierarchy one access for access,
// counters included.
func TestHierarchyResetMatchesNew(t *testing.T) {
	cfg := DefaultConfig()
	used := NewHierarchy(cfg)
	rng := uint64(3)
	line := func() mem.Line {
		rng = rng*6364136223846793005 + 1442695040888963407
		return mem.Line(rng >> 40 % 1_000_000)
	}
	for i := 0; i < 200_000; i++ {
		l := line()
		if used.Access(l, i%3 == 0, 0).Level == Memory {
			used.Fill(l, i%5 == 0)
		}
	}
	used.Reset()
	if used.Config() != cfg {
		t.Fatalf("Config() = %+v, want %+v", used.Config(), cfg)
	}
	fresh := NewHierarchy(cfg)
	for i := 0; i < 200_000; i++ {
		l, store := line(), i%7 == 0
		ra, rb := used.Access(l, store, 0), fresh.Access(l, store, 0)
		if ra.Level != rb.Level || fmt.Sprint(ra.Writebacks) != fmt.Sprint(rb.Writebacks) {
			t.Fatalf("access %d line %d: reset %+v, new %+v", i, l, ra, rb)
		}
		if ra.Level == Memory {
			wa, wb := fmt.Sprint(used.Fill(l, store)), fmt.Sprint(fresh.Fill(l, store))
			if wa != wb {
				t.Fatalf("fill %d line %d: reset writebacks %s, new %s", i, l, wa, wb)
			}
		}
	}
	if used.DemandMisses != fresh.DemandMisses || used.WritebacksToMemory != fresh.WritebacksToMemory {
		t.Fatalf("counters: reset %d/%d, new %d/%d", used.DemandMisses, used.WritebacksToMemory,
			fresh.DemandMisses, fresh.WritebacksToMemory)
	}
}
