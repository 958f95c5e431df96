package workload

import (
	"runtime"
	"sync"
	"testing"
)

// Materialize must be a pure function of (profile, seed, thread,
// budget): repeated materializations yield byte-identical records and
// the same ground-truth histogram, and the record stream covers the
// budget exactly the way cpu.Thread's fetch condition does.
func TestMaterializeDeterministic(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	const budget = 200_000
	a, err := Materialize(prof, 1, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Materialize(prof, 1, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
	if a.Instructions != b.Instructions {
		t.Fatalf("instruction totals differ: %d vs %d", a.Instructions, b.Instructions)
	}
	if a.Instructions < budget {
		t.Fatalf("trace covers %d instructions, want >= budget %d", a.Instructions, budget)
	}
	var sum uint64
	for _, rec := range a.Records {
		sum += uint64(rec.Gap) + 1
	}
	if sum != a.Instructions {
		t.Fatalf("Instructions = %d, but records sum to %d", a.Instructions, sum)
	}
	// The last record must be the one that crossed the budget: without
	// it the trace would be short.
	last := uint64(a.Records[len(a.Records)-1].Gap) + 1
	if a.Instructions-last >= budget {
		t.Fatalf("trace overshoots: %d instructions without final record already >= %d", a.Instructions-last, budget)
	}
	if a.TrueLengths == nil || b.TrueLengths == nil {
		t.Fatal("missing TrueLengths histogram")
	}
	if a.TrueLengths.Total() != b.TrueLengths.Total() {
		t.Fatalf("TrueLengths totals differ: %d vs %d", a.TrueLengths.Total(), b.TrueLengths.Total())
	}
}

// Different seeds and different threads must produce different traces —
// the cache key includes both for a reason.
func TestMaterializeKeySensitivity(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Materialize(prof, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, alt := range map[string]func() (*MaterializedTrace, error){
		"seed":   func() (*MaterializedTrace, error) { return Materialize(prof, 2, 0, 50_000) },
		"thread": func() (*MaterializedTrace, error) { return Materialize(prof, 1, 1, 50_000) },
	} {
		other, err := alt()
		if err != nil {
			t.Fatal(err)
		}
		same := len(other.Records) == len(base.Records)
		if same {
			for i := range base.Records {
				if base.Records[i] != other.Records[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("changing %s produced an identical trace", name)
		}
	}
}

func TestTraceCacheHitMiss(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(0)
	a, err := c.Get(prof, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(prof, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Get of the same key returned a different trace")
	}
	if _, err := c.Get(prof, 1, 0, 60_000); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("residency = %+v, want 2 accounted entries", st)
	}
}

// A byte budget smaller than two traces forces eviction of the older
// entry; the evicted trace stays valid for holders, and re-Getting it
// counts as a miss again.
func TestTraceCacheEviction(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(1) // below any single trace: only the newest survives
	a, err := c.Get(prof, 1, 0, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(a.Records)
	if _, err := c.Get(prof, 2, 0, 50_000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after over-budget insert, want 1", st.Entries)
	}
	// The evicted trace is immutable and still usable.
	if len(a.Records) != wantLen {
		t.Fatal("evicted trace mutated")
	}
	if _, err := c.Get(prof, 1, 0, 50_000); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (evicted key re-materializes)", st.Misses)
	}
}

// Concurrent Gets of one key must share a single materialization: one
// miss, everyone else hits or waits, and all callers see the same
// trace pointer. Run under -race this also proves the singleflight
// publication is sound.
func TestTraceCacheConcurrentSingleflight(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewTraceCache(0)
	const n = 16
	got := make([]*MaterializedTrace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mt, err := c.Get(prof, 1, 0, 100_000)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = mt
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, n-1)
	}
}

// ProfileHash keys the cache by profile content: equal profiles hash
// equal, any field change hashes differently (so a user-registered
// profile reusing a built-in name cannot collide).
func TestProfileHashContent(t *testing.T) {
	a, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	b := a
	if ProfileHash(a) != ProfileHash(b) {
		t.Fatal("equal profiles hash differently")
	}
	b.MeanGap++
	if ProfileHash(a) == ProfileHash(b) {
		t.Fatal("profiles with different MeanGap hash equal")
	}
}

// The cache's byte accounting must track what its traces hold on the
// heap: filling a cache with many short traces (where the records'
// spare capacity and the per-entry overhead matter most) must grow the
// live heap by about the Bytes the cache reports.
func TestTraceCacheBytesMatchLiveHeap(t *testing.T) {
	prof, err := ByName("milc")
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	c := NewTraceCache(1 << 40)
	for seed := uint64(1); seed <= 400; seed++ {
		if _, err := c.Get(prof, seed, 0, 20_000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := float64(ms.HeapAlloc) - float64(before)
	acct := float64(c.Stats().Bytes)
	runtime.KeepAlive(c)
	r := acct / live
	t.Logf("accounted %.0f B, live %.0f B, ratio %.3f", acct, live, r)
	if r < 0.9 || r > 1.1 {
		t.Fatalf("cache accounts %.0f B for %.0f B of live heap (ratio %.2f), want within 10%%", acct, live, r)
	}
}
