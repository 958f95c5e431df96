package cluster

import (
	"context"
	"testing"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
)

// A spec submitted while a worker sits idle must be leased long before
// one Poll passes: the first idle waits are a small fraction of Poll,
// which caps the wait only once the worker has been idle a while.
func TestIdleWorkerLeasesNewSpecWithinPoll(t *testing.T) {
	const poll = 5 * time.Second
	coord := New(Options{})
	pool := farm.New(farm.Options{Workers: 1, Run: func(ctx context.Context, spec farm.Spec) (sim.Result, error) {
		return sim.Result{Benchmark: spec.Benchmark, Mode: spec.Mode, Cycles: 1}, nil
	}})
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Transport: &Loopback{C: coord}, Pool: pool, Name: "idle", Poll: poll}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	deadline := time.Now().Add(poll)
	for w.Stats().IdlePolls() == 0 { // registered, found nothing, now asleep
		if time.Now().After(deadline) {
			t.Fatal("worker never polled the empty queue")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	ret := startBatch(coord, ctx, []farm.Spec{testSpec("milc", sim.PMS)}, nil)
	select {
	case r := <-ret:
		if r.err != nil || !r.out[0].OK() {
			t.Fatalf("batch: err %v, outcome %+v", r.err, r.out)
		}
		if waited := time.Since(start); waited > poll/5 {
			t.Fatalf("idle worker took %v to lease a new spec, want under %v", waited, poll/5)
		}
	case <-time.After(poll / 5):
		t.Fatalf("idle worker did not lease a new spec within %v (Poll %v)", poll/5, poll)
	}
}
