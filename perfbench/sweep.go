package main

import (
	"context"
	"os"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/workload"
)

// sweepBudget is the figures default: instructions per thread per cell.
const sweepBudget = 2_000_000

// sweepFarm is one sweep pass's farm: a fresh local pool and a fresh
// store, as figures and asdfarm run open them.
type sweepFarm struct {
	pool  *farm.Pool
	store *farm.Store
	dir   string
}

func (b *bench) openSweep(opts farm.Options) (*sweepFarm, time.Duration, error) {
	dir := b.scratchDir("sweep-store")
	start := time.Now()
	pool := farm.New(opts)
	st, err := farm.OpenStore(dir)
	if err != nil {
		pool.Close()
		return nil, 0, err
	}
	return &sweepFarm{pool: pool, store: st, dir: dir}, time.Since(start), nil
}

func (f *sweepFarm) close() error {
	f.pool.Close()
	err := f.store.Close()
	os.RemoveAll(f.dir)
	return err
}

// sweepPasses runs the full matrix on a fresh farm per pass until d has
// passed (at least once), checking every outcome. Each pass's set-up
// time is appended to setups when it is not nil.
func (b *bench) sweepPasses(specs []farm.Spec, d time.Duration, tr *farmTracer, setups *[]float64) (passes, workload.TraceCacheStats, error) {
	var p passes
	var tc workload.TraceCacheStats
	opts := farm.Options{Workers: b.nproc}
	if tr != nil {
		opts.Instrument = tr.instrument
	}
	w := beginWindow()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		f, setup, err := b.openSweep(opts)
		if err != nil {
			return p, tc, err
		}
		if setups != nil {
			*setups = append(*setups, setup.Seconds())
		}
		t0 := time.Now()
		if tr != nil {
			tr.batchStart(specs, t0)
		}
		outs, err := f.pool.RunBatch(context.Background(), specs, f.store, nil)
		sec := time.Since(t0).Seconds()
		if tr != nil {
			tr.spans.add("sweep", "farm.batch", "", t0, time.Now())
		}
		cs := f.pool.TraceCacheStats()
		tc.Hits += cs.Hits
		tc.Misses += cs.Misses
		if cerr := f.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return p, tc, err
		}
		var instr uint64
		for i, o := range outs {
			s := specs[i]
			b.op(o.Key == s.Key(), "%s: outcome key %.12s, spec key %.12s", specName(s), o.Key, s.Key())
			b.checkCell(s, o.Result, o.Err)
			if o.Result != nil {
				instr += o.Result.Instructions
			}
			p.jobMs = append(p.jobMs, o.WallMS)
			if pass == 0 {
				p.results = append(p.results, o.Result)
			}
		}
		p.cells += len(outs)
		p.minstrPerS = append(p.minstrPerS, float64(instr)/sec/1e6)
		p.cellsPerS = append(p.cellsPerS, float64(len(outs))/sec)
	}
	p.win = w.end()
	return p, tc, nil
}

func runSweep(b *bench) error {
	specs, err := farm.Matrix{Budget: sweepBudget, Seed: b.seed}.Specs()
	if err != nil {
		return err
	}
	if err := b.prepareChecks(specs); err != nil {
		return err
	}
	if b.traced {
		untraced, _, err := b.sweepPasses(specs, b.untracedPart(), nil, nil)
		if err != nil {
			return err
		}
		tr := newFarmTracer(b.spans)
		p, tc, err := b.sweepPasses(specs, b.tracedPart(), tr, nil)
		if err != nil {
			return err
		}
		b.setDigest(keysOf(specs))
		replay, err := kernelSpecs(b.seed, sweepBudget)
		if err != nil {
			return err
		}
		queueWait, exec := tr.farmTimes()
		return b.reportLayers(&layerRun{
			cells: specs, results: p.results, replay: replay,
			traceCache: tc, pass: p.win,
			untracedRate: median(untraced.cellsPerS), tracedRate: median(p.cellsPerS),
			queueWait: queueWait, exec: exec, outcomes: p.cells,
		})
	}
	setup := &setupSampler{fn: func() (time.Duration, error) {
		f, d, err := b.openSweep(farm.Options{Workers: b.nproc})
		if err != nil {
			return 0, err
		}
		return d, f.close()
	}}
	if err := setup.burst(); err != nil {
		return err
	}
	p, _, err := b.sweepPasses(specs, b.seconds, nil, &setup.times)
	if err != nil {
		return err
	}
	if err := setup.burst(); err != nil {
		return err
	}
	b.setDigest(keysOf(specs))
	cr := cellResults{}
	for i, s := range specs {
		if r := p.results[i]; r != nil {
			cr.add(s.Benchmark, s.Mode, r)
		}
	}
	if b.seed == 1 {
		t, err := loadPaperGains()
		if err != nil {
			return err
		}
		b.checkMeasuredColumn(t, cr)
	}
	return b.reportEndToEnd(setup.times, p, cr)
}
