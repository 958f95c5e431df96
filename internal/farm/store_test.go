package farm

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"asdsim/internal/sim"
)

// An interrupted batch must resume from its partial store: persisted
// successes are served from disk, only the remainder runs, and failures
// are retried rather than resumed.
func TestStoreResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results")

	var mu sync.Mutex
	ran := map[string]int{}
	newPool := func() *Pool {
		return New(Options{
			Workers: 2,
			Backoff: 0,
			Run: func(ctx context.Context, s Spec) (sim.Result, error) {
				mu.Lock()
				ran[s.Benchmark]++
				mu.Unlock()
				if s.Benchmark == "fails" {
					return sim.Result{}, context.DeadlineExceeded
				}
				return fakeResult(uint64(len(s.Benchmark))), nil
			},
		})
	}

	specs := []Spec{testSpec("a", sim.NP), testSpec("b", sim.NP),
		{Benchmark: "fails", Mode: sim.NP, Config: sim.Default(sim.NP, 10_000)}}

	// First pass: everything runs, two successes and one failure land
	// in the store.
	store, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := newPool()
	if _, err := pool.RunBatch(context.Background(), specs, store, nil); err != nil {
		t.Fatal(err)
	}
	pool.Close()
	store.Close()
	if got := countRuns(ran); got != 3 {
		t.Fatalf("first pass ran %d jobs, want 3", got)
	}

	// Second pass over the same specs: the successes resume from disk,
	// only the failure reruns.
	store, err = OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Completed() != 2 {
		t.Fatalf("store resumed %d successes, want 2", store.Completed())
	}
	pool = newPool()
	defer pool.Close()
	out, err := pool.RunBatch(context.Background(), specs, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran["a"] != 1 || ran["b"] != 1 {
		t.Errorf("resumed jobs reran: a=%d b=%d, want 1 each", ran["a"], ran["b"])
	}
	if ran["fails"] != 2 {
		t.Errorf("failed job ran %d times, want 2 (not resumed)", ran["fails"])
	}
	if !out[0].Resumed || !out[1].Resumed || out[2].Resumed {
		t.Errorf("resume flags wrong: %v %v %v", out[0].Resumed, out[1].Resumed, out[2].Resumed)
	}
	if !out[0].OK() || out[0].Result.Cycles != fakeResult(1).Cycles {
		t.Errorf("resumed outcome lost its result: %+v", out[0])
	}
}

func countRuns(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
