package main

import (
	"fmt"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

const (
	// kernelBudget makes each kernel run a few hundred times longer
	// than building its system, so the simulator's inner layers do
	// nearly all of the work.
	kernelBudget = 10_000_000
	// replayBudget is the per-thread budget of the kernel and sweep
	// cells whose layer inputs are recorded and replayed: shorter than
	// the kernel's, so the recorded sequences stay small in memory.
	replayBudget = 2_000_000
)

// kernelSpecs returns the kernel's four runs: GemsFDTD under NP and MS
// and milc under PS and PMS, the pairs the throughput ledger tracks.
// Building them (resolving each profile and validating each config) is
// the kernel's whole set-up: the first sim.Run can be issued next.
func kernelSpecs(seed, budget uint64) ([]farm.Spec, error) {
	cells := []struct {
		bench string
		mode  sim.Mode
	}{{"GemsFDTD", sim.NP}, {"GemsFDTD", sim.MS}, {"milc", sim.PS}, {"milc", sim.PMS}}
	specs := make([]farm.Spec, len(cells))
	for i, c := range cells {
		if _, err := workload.ByName(c.bench); err != nil {
			return nil, err
		}
		cfg := sim.Default(c.mode, budget)
		cfg.Seed = seed
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		specs[i] = farm.Spec{Benchmark: c.bench, Mode: c.mode, Config: cfg}
	}
	return specs, nil
}

func specName(s farm.Spec) string { return fmt.Sprintf("%s/%v", s.Benchmark, s.Mode) }

func keysOf(specs []farm.Spec) []string {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}
	return keys
}

// passes is what a run of repeated passes measured.
type passes struct {
	minstrPerS []float64 // simulated Minstr per host second, per pass
	cellsPerS  []float64 // cells per host second, per pass
	jobMs      []float64 // per-job latency
	// passP50Ms, when set, is each pass's median job latency; job_p50_ms
	// is then their median (see kernelPasses).
	passP50Ms  []float64
	cells      int
	freshInstr uint64        // instructions of freshly simulated cells
	results    []*sim.Result // the first pass's results, in spec order
	win        windowStats
}

// kernelPasses runs the four cells back to back in one goroutine until
// d has passed (at least once), checking every result. The four runs
// have four different lengths, so a median over all of them would fall
// between two lengths and swing with the slowest and fastest passes;
// the median of each pass's median does not.
func kernelPasses(b *bench, specs []farm.Spec, d time.Duration, spans *spanLog) passes {
	var p passes
	w := beginWindow()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		passStart := time.Now()
		var instr uint64
		var passMs []float64
		for _, s := range specs {
			key := s.Key()
			t0 := time.Now()
			res, err := sim.Run(s.Benchmark, s.Config)
			t1 := time.Now()
			spans.add(key[:16], "sim.run", "", t0, t1)
			ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
			p.jobMs = append(p.jobMs, ms)
			passMs = append(passMs, ms)
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			b.checkCell(s, &res, errText)
			instr += res.Instructions
			if pass == 0 {
				p.results = append(p.results, &res)
			}
			p.cells++
		}
		p.passP50Ms = append(p.passP50Ms, median(passMs))
		sec := time.Since(passStart).Seconds()
		p.minstrPerS = append(p.minstrPerS, float64(instr)/sec/1e6)
		p.cellsPerS = append(p.cellsPerS, float64(len(specs))/sec)
	}
	p.win = w.end()
	return p
}

func runKernel(b *bench) error {
	specs, err := kernelSpecs(b.seed, kernelBudget)
	if err != nil {
		return err
	}
	replay, err := kernelSpecs(b.seed, replayBudget)
	if err != nil {
		return err
	}
	if err := b.prepareChecks(specs); err != nil {
		return err
	}
	if b.traced {
		untraced := kernelPasses(b, specs, b.untracedPart(), nil)
		p := kernelPasses(b, specs, b.tracedPart(), b.spans)
		b.setDigest(keysOf(specs))
		return b.reportLayers(&layerRun{
			cells: specs, results: p.results, replay: replay,
			pass: p.win, untracedRate: median(untraced.cellsPerS), tracedRate: median(p.cellsPerS),
		})
	}
	// One set-up takes about a microsecond, so each sample times a
	// batch of them.
	const batch = 100
	setup := &setupSampler{fn: func() (time.Duration, error) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := kernelSpecs(b.seed, kernelBudget); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / batch, nil
	}}
	if err := setup.burst(); err != nil {
		return err
	}
	p := kernelPasses(b, specs, b.seconds, nil)
	if err := setup.burst(); err != nil {
		return err
	}
	b.setDigest(keysOf(specs))
	// Two benchmarks cannot estimate a suite average, so the kernel
	// reports the error of the accuracy set the service workloads
	// simulate, run here after the measured pass.
	cr := cellResults{}
	for _, s := range accuracySpecs(b.seed) {
		res, err := sim.Run(s.Benchmark, s.Config)
		if err != nil {
			return fmt.Errorf("accuracy set %s: %w", specName(s), err)
		}
		cr.add(s.Benchmark, s.Mode, &res)
	}
	return b.reportEndToEnd(setup.times, p, cr)
}
