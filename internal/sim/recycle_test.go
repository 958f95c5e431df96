package sim

import (
	"encoding/json"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"asdsim/internal/cache"
)

// drainIdleHiers empties the idle-hierarchy list.
func drainIdleHiers() {
	idleHiers.mu.Lock()
	idleHiers.list = nil
	idleHiers.mu.Unlock()
}

// onlyIdleHier returns the one idle hierarchy, failing unless there is
// exactly one.
func onlyIdleHier(t *testing.T) *cache.Hierarchy {
	t.Helper()
	idleHiers.mu.Lock()
	defer idleHiers.mu.Unlock()
	if len(idleHiers.list) != 1 {
		t.Fatalf("%d idle hierarchies, want 1", len(idleHiers.list))
	}
	return idleHiers.list[0]
}

// sameResult reports whether two Results agree field for field, the
// wall-clock stamps aside.
func sameResult(a, b Result) bool {
	a.WallSeconds, a.CyclesPerSec = 0, 0
	b.WallSeconds, b.CyclesPerSec = 0, 0
	return reflect.DeepEqual(a, b)
}

// A cell run on a hierarchy recycled from another cell (milc/PMS after
// GemsFDTD/NP, which leaves the L3 full of stale dirty lines) must equal
// the same cell run on a new hierarchy, field for field, through both
// Run and Batch.
func TestRecycledHierarchyMatchesFresh(t *testing.T) {
	dirtyCfg := Default(NP, 300_000)
	cellCfg := Default(PMS, 300_000)
	for _, tc := range []struct {
		name string
		run  func(string, Config) (Result, error)
	}{
		{"Run", Run},
		{"Batch", NewBatch().Run},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(bench string, cfg Config) Result {
				t.Helper()
				res, err := tc.run(bench, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			drainIdleHiers()
			fresh := run("milc", cellCfg)
			drainIdleHiers()
			run("GemsFDTD", dirtyCfg)
			dirty := onlyIdleHier(t)
			if dirty.DemandMisses == 0 || dirty.L3.Accesses == 0 {
				t.Fatal("the GemsFDTD run returned an unused hierarchy")
			}
			got := run("milc", cellCfg)
			if onlyIdleHier(t) != dirty {
				t.Fatal("the cell did not run on the recycled hierarchy")
			}
			if !sameResult(got, fresh) {
				g, _ := json.Marshal(got)
				f, _ := json.Marshal(fresh)
				t.Fatalf("recycled run differs from fresh run:\nrecycled %s\nfresh    %s", g, f)
			}
		})
	}
}

// An idle hierarchy survives garbage collections, so whether a run
// rebuilds its hierarchy never depends on when the collector ran.
func TestIdleHierarchySurvivesGC(t *testing.T) {
	cfg := Default(PMS, 20_000)
	drainIdleHiers()
	if _, err := Run("milc", cfg); err != nil {
		t.Fatal(err)
	}
	h := onlyIdleHier(t)
	runtime.GC()
	runtime.GC()
	if _, err := Run("milc", cfg); err != nil {
		t.Fatal(err)
	}
	if onlyIdleHier(t) != h {
		t.Fatal("a run after two collections built a new hierarchy")
	}
}

// The idle list holds at most GOMAXPROCS hierarchies, and a full list
// drops its oldest.
func TestIdleHierarchiesBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	drainIdleHiers()
	defer drainIdleHiers()
	cfg := Default(NP, 0).Cache
	hs := make([]*cache.Hierarchy, 3)
	for i := range hs {
		hs[i] = cache.NewHierarchy(cfg)
		releaseHierarchy(hs[i])
	}
	idleHiers.mu.Lock()
	got := slices.Clone(idleHiers.list)
	idleHiers.mu.Unlock()
	if !slices.Equal(got, hs[1:]) {
		t.Fatalf("idle list holds %d hierarchies, want the newest 2", len(got))
	}
	other := cfg
	other.L1Assoc *= 2
	if h := takeHierarchy(other); h == hs[1] || h == hs[2] {
		t.Fatal("a hierarchy of another Config was recycled")
	}
	if h := takeHierarchy(cfg); h != hs[2] {
		t.Fatal("take did not return the newest idle hierarchy")
	}
}

// A warm Batch cell must not rebuild its cache hierarchy: at the
// service budget it allocates tens of KiB, against about 2.8 MB when
// every cell built a new hierarchy.
func TestBatchCellAllocBound(t *testing.T) {
	const limit = 256 << 10
	b := NewBatch()
	cfg := Default(PMS, 20_000)
	if _, err := b.Run("milc", cfg); err != nil { // materializes the trace, leaves a hierarchy idle
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := b.Run("milc", cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got >= limit {
		t.Fatalf("a warm 20k-instruction Batch cell allocated %d KiB, want < %d KiB", got>>10, limit>>10)
	} else {
		t.Logf("warm 20k-instruction Batch cell: %d KiB allocated", got>>10)
	}
}

// BenchmarkRunnerSetup times building one cell's runner alone (caches,
// MC, DRAM, engines and threads over a cached trace) and returning its
// hierarchy, the per-cell set-up every Batch cell pays before
// simulating.
func BenchmarkRunnerSetup(b *testing.B) {
	batch := NewBatch()
	cfg := Default(PMS, 20_000)
	setup := func() {
		r, err := batch.replayRunner("milc", cfg)
		if err != nil {
			b.Fatal(err)
		}
		releaseHierarchy(r.hier)
	}
	setup() // materializes the trace, leaves a hierarchy idle
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setup()
	}
}
