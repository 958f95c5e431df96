package sim

import (
	"context"

	"asdsim/internal/stats"
	"asdsim/internal/trace"
	"asdsim/internal/workload"
)

// Batch runs many matrix cells over shared materialized workload
// traces: each benchmark's trace is generated once (per seed, thread
// and budget) and every (mode, engine, depth) cell replays it through
// a private cursor. Exact-mode outcomes are bit-for-bit identical to
// sim.Run — record consumption depends only on the trace source and
// the instruction budget, never on memory-system timing — so the only
// thing shared between cells is immutable trace data.
//
// A Batch is safe for concurrent use: cells may run in parallel from
// many goroutines against one Batch.
type Batch struct {
	cache *workload.TraceCache
}

// NewBatch returns a Batch with a default-bounded trace cache.
func NewBatch() *Batch { return &Batch{cache: workload.NewTraceCache(0)} }

// CacheStats reports trace-cache effectiveness: (Misses) traces
// generated, (Hits) cells that reused one.
func (b *Batch) CacheStats() workload.TraceCacheStats { return b.cache.Stats() }

// Run simulates benchmark bench under cfg, reusing the batch's
// materialized trace for (bench, cfg.Seed, cfg.Threads, cfg.InstrBudget)
// across calls. Results are bit-identical to sim.Run(bench, cfg).
func (b *Batch) Run(bench string, cfg Config) (Result, error) {
	return b.RunContext(context.Background(), bench, cfg)
}

// RunContext is Run with cancellation.
func (b *Batch) RunContext(ctx context.Context, bench string, cfg Config) (Result, error) {
	return runExact(ctx, bench, cfg, b.replayRunner)
}

// replayRunner builds a runner whose threads replay the batch's
// materialized traces through private cursors, with the ground-truth
// stream-length histograms taken at materialization time. The cursors
// are also handed to fast-forward so sampled runs can skip records in
// bulk.
func (b *Batch) replayRunner(bench string, cfg Config) (*runner, error) {
	prof, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	srcs := make([]trace.Source, cfg.Threads)
	trueLens := make([]*stats.Histogram, cfg.Threads)
	recs := make([][]trace.Record, cfg.Threads)
	cursors := make([]*trace.SliceSource, cfg.Threads)
	for t := range srcs {
		mt, err := b.cache.Get(prof, cfg.Seed, t, cfg.InstrBudget)
		if err != nil {
			return nil, err
		}
		cursors[t] = trace.NewSliceSource(mt.Records)
		srcs[t], trueLens[t], recs[t] = cursors[t], mt.TrueLengths, mt.Records
	}
	r := newRunner(cfg, srcs, trueLens)
	r.ffRecs, r.ffSrcs = recs, cursors
	return r, nil
}
