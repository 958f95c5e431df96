package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"asdsim/internal/cluster"
	"asdsim/internal/farm"
	"asdsim/internal/obs"
	"asdsim/internal/obs/span"
	"asdsim/internal/sim"
)

// farmTracer times the farm from outside: a wrapped Runner marks when
// each batch is submitted and when RunBatch returns, and the pools'
// Options.Instrument hook marks when each cell starts and ends
// executing.
type farmTracer struct {
	spans *spanLog

	mu        sync.Mutex
	submitted map[string][]time.Time // spec key -> batch submissions not yet executed
	returned  map[string][]time.Time // batch signature -> RunBatch returns not yet seen by a client
	queueWait []float64
	exec      []float64
}

func newFarmTracer(spans *spanLog) *farmTracer {
	return &farmTracer{spans: spans, submitted: map[string][]time.Time{}, returned: map[string][]time.Time{}}
}

// batchSignature identifies a batch by its first cell and size; a
// client derives the same signature from the matrix it submitted.
func batchSignature(specs []farm.Spec) string {
	if len(specs) == 0 {
		return ""
	}
	return fmt.Sprintf("%s/%d", specs[0].Key(), len(specs))
}

func (t *farmTracer) batchStart(specs []farm.Spec, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range specs {
		k := s.Key()
		t.submitted[k] = append(t.submitted[k], at)
	}
}

func (t *farmTracer) batchDone(sig string, at time.Time) {
	t.mu.Lock()
	t.returned[sig] = append(t.returned[sig], at)
	t.mu.Unlock()
}

// takeReturn pops the earliest unclaimed RunBatch return of a batch.
func (t *farmTracer) takeReturn(sig string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.returned[sig]
	if len(q) == 0 {
		return time.Time{}, false
	}
	t.returned[sig] = q[1:]
	return q[0], true
}

// instrument is the pools' Options.Instrument hook. It attaches no
// probe bus, so simulated work is unchanged.
func (t *farmTracer) instrument(spec farm.Spec) (*obs.Bus, func(*sim.Result, error)) {
	start := time.Now()
	key := spec.Key()
	t.mu.Lock()
	if q := t.submitted[key]; len(q) > 0 {
		t.queueWait = append(t.queueWait, float64(start.Sub(q[0]).Nanoseconds())/1e6)
		t.submitted[key] = q[1:]
	}
	t.mu.Unlock()
	return nil, func(*sim.Result, error) {
		end := time.Now()
		t.spans.add(key[:16], "farm.exec", "farm.batch", start, end)
		t.mu.Lock()
		t.exec = append(t.exec, float64(end.Sub(start).Nanoseconds())/1e6)
		t.mu.Unlock()
	}
}

func (t *farmTracer) farmTimes() (queueWait, exec []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.queueWait...), append([]float64(nil), t.exec...)
}

// tracedRunner wraps the Runner behind a Server.
type tracedRunner struct {
	farm.Runner
	t *farmTracer
}

func (r tracedRunner) RunBatch(ctx context.Context, specs []farm.Spec, store *farm.Store, onDone func(farm.Outcome)) ([]farm.Outcome, error) {
	start := time.Now()
	r.t.batchStart(specs, start)
	outs, err := r.Runner.RunBatch(ctx, specs, store, onDone)
	end := time.Now()
	sig := batchSignature(specs)
	if len(specs) > 0 {
		r.t.spans.add(specs[0].Key()[:16], "farm.batch", "client.job", start, end)
	}
	r.t.batchDone(sig, end)
	return outs, err
}

// tracedCoordinator keeps the coordinator's fleet view and distributed
// spans visible through the wrapper, so job status responses keep
// their shape.
type tracedCoordinator struct {
	tracedRunner
	c *cluster.Coordinator
}

func (r tracedCoordinator) ClusterSnapshot() farm.ClusterSnapshot { return r.c.ClusterSnapshot() }
func (r tracedCoordinator) Spans(keys []string) []span.Span       { return r.c.Spans(keys) }

// tracedTransport times every lease-protocol call a worker makes.
type tracedTransport struct {
	next  cluster.Transport
	spans *spanLog

	mu    sync.Mutex
	calls []float64 // ms
}

func (t *tracedTransport) note(name string, start time.Time) {
	end := time.Now()
	t.spans.add("rpc", name, "", start, end)
	t.mu.Lock()
	t.calls = append(t.calls, float64(end.Sub(start).Nanoseconds())/1e6)
	t.mu.Unlock()
}

func (t *tracedTransport) Register(ctx context.Context, req cluster.RegisterRequest) (cluster.RegisterResponse, error) {
	defer t.note("rpc.register", time.Now())
	return t.next.Register(ctx, req)
}

func (t *tracedTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	defer t.note("rpc.heartbeat", time.Now())
	return t.next.Heartbeat(ctx, req)
}

func (t *tracedTransport) Acquire(ctx context.Context, req cluster.AcquireRequest) (cluster.AcquireResponse, error) {
	defer t.note("rpc.acquire", time.Now())
	return t.next.Acquire(ctx, req)
}

func (t *tracedTransport) Complete(ctx context.Context, req cluster.CompleteRequest) (cluster.CompleteResponse, error) {
	defer t.note("rpc.complete", time.Now())
	return t.next.Complete(ctx, req)
}

func (t *tracedTransport) callTimes() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.calls...)
}
