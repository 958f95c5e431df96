package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"asdsim/internal/cache"
	"asdsim/internal/cpu"
	"asdsim/internal/mem"
	"asdsim/internal/trace"
)

// Default sampling parameters: 10k measured instructions out of every
// 100k, preceded by a 5k detailed warmup — a 15% detailed-simulation
// duty cycle with the SMARTS-style systematic schedule.
const (
	DefaultSamplePeriod     = 100_000
	DefaultSampleWarmup     = 5_000
	DefaultSampleDetail     = 10_000
	DefaultSampleConfidence = 0.95
)

// SampleConfig parameterizes SMARTS-style sampled simulation: every
// Period instructions (per thread), the simulator runs Warmup detailed
// instructions to re-warm timing state, measures CPI over the next
// Detail detailed instructions, then fast-forwards the rest of the
// period with a functional model (caches, the processor-side
// prefetcher, and the memory-side engines' stream/SLH state stay warm;
// MC and DRAM timing are skipped).
type SampleConfig struct {
	// Period is the sampling period in instructions (default 100k).
	Period uint64
	// Warmup is the detailed-but-unmeasured prefix of each window
	// (default 5k).
	Warmup uint64
	// Detail is the measured detailed portion of each window
	// (default 10k).
	Detail uint64
	// FuncWarmup bounds functional warming: when non-zero, only the
	// last FuncWarmup instructions before each detailed window are
	// functionally modeled (caches, prefetcher state); earlier
	// fast-forward references are consumed without modeling, in the
	// style of reuse-bounded warming (MRRL/BLRL). Zero warms the whole
	// fast-forward gap. Bounded warming is faster but slightly less
	// accurate for references whose cache reuse distance exceeds the
	// bound.
	FuncWarmup uint64
	// Confidence selects the two-sided confidence level for the CPI
	// interval: 0.90, 0.95 (default) or 0.99.
	Confidence float64
}

// DefaultSampleConfig returns the default sampling parameters.
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{
		Period:     DefaultSamplePeriod,
		Warmup:     DefaultSampleWarmup,
		Detail:     DefaultSampleDetail,
		Confidence: DefaultSampleConfidence,
	}
}

// WithDefaults fills zero fields (except FuncWarmup, whose zero means
// full functional warming) from the defaults.
func (sc SampleConfig) WithDefaults() SampleConfig {
	if sc.Period == 0 {
		sc.Period = DefaultSamplePeriod
	}
	if sc.Warmup == 0 {
		sc.Warmup = DefaultSampleWarmup
	}
	if sc.Detail == 0 {
		sc.Detail = DefaultSampleDetail
	}
	if sc.Confidence == 0 {
		sc.Confidence = DefaultSampleConfidence
	}
	return sc
}

// Validate rejects inconsistent sampling parameters (call on the
// defaulted config; Sampled does this internally).
func (sc SampleConfig) Validate() error {
	if sc.Detail == 0 {
		return fmt.Errorf("sim: sample detail window must be > 0")
	}
	if sc.Warmup+sc.Detail > sc.Period {
		return fmt.Errorf("sim: sample warmup+detail (%d) exceeds period (%d)", sc.Warmup+sc.Detail, sc.Period)
	}
	switch sc.Confidence {
	case 0.90, 0.95, 0.99:
	default:
		return fmt.Errorf("sim: unsupported confidence level %v (use 0.90, 0.95 or 0.99)", sc.Confidence)
	}
	return nil
}

// SampledResult is the outcome of one sampled simulation: a CPI point
// estimate with a Student-t confidence interval over the measurement
// windows, and cycle/IPC estimates extrapolated from it.
type SampledResult struct {
	Benchmark string
	Mode      Mode

	// Windows is the number of measurement windows that contributed
	// CPI samples; MeasuredInstructions is their total retired
	// instruction count, Instructions the whole run's (detailed +
	// fast-forwarded).
	Windows              int
	MeasuredInstructions uint64
	Instructions         uint64

	// CPIMean is the mean per-window CPI, CPIStdDev the sample
	// standard deviation across windows, and CPIHalfWidth the
	// half-width of the two-sided confidence interval [CILo, CIHi]
	// at the configured Confidence level.
	CPIMean      float64
	CPIStdDev    float64
	CPIHalfWidth float64
	CILo         float64
	CIHi         float64
	Confidence   float64

	// EstCycles and EstIPC extrapolate the CPI estimate over the whole
	// instruction budget.
	EstCycles uint64
	EstIPC    float64

	// Sample echoes the (defaulted) sampling parameters used.
	Sample SampleConfig

	// WallSeconds is the host wall-clock duration; excluded from JSON
	// for the same reason as Result.WallSeconds.
	WallSeconds float64 `json:"-"`
}

// AsResult shapes the sampled estimate as a Result so downstream
// consumers built for exact runs (gain tables, outcome stores) can
// treat sampled cells uniformly. Only Benchmark, Mode, Cycles,
// Instructions and IPC are populated — detailed MC/DRAM statistics do
// not exist in sampled mode.
func (s *SampledResult) AsResult() Result {
	return Result{
		Benchmark:    s.Benchmark,
		Mode:         s.Mode,
		Cycles:       s.EstCycles,
		Instructions: s.Instructions,
		IPC:          s.EstIPC,
		WallSeconds:  s.WallSeconds,
	}
}

// Sampled runs benchmark bench under cfg with SMARTS-style systematic
// sampling and returns a CPI estimate with confidence interval.
func Sampled(bench string, cfg Config, sc SampleConfig) (SampledResult, error) {
	return SampledContext(context.Background(), bench, cfg, sc)
}

// SampledContext is Sampled with cancellation.
func SampledContext(ctx context.Context, bench string, cfg Config, sc SampleConfig) (SampledResult, error) {
	return runSampled(ctx, bench, cfg, sc, liveRunner)
}

// RunSampled is the shared-trace sampled path: like SampledContext but
// replaying the batch's materialized trace for bench instead of driving
// live generators, so a sweep's sampled cells also amortize trace
// generation.
func (b *Batch) RunSampled(ctx context.Context, bench string, cfg Config, sc SampleConfig) (SampledResult, error) {
	return runSampled(ctx, bench, cfg, sc, b.replayRunner)
}

// runSampled is the sampled-run driver shared by every entry point:
// validate, build, drive the alternating detailed/functional schedule,
// assemble the estimate and stamp it.
func runSampled(ctx context.Context, bench string, cfg Config, sc SampleConfig, build builder) (SampledResult, error) {
	if err := cfg.Validate(); err != nil {
		return SampledResult{}, err
	}
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return SampledResult{}, err
	}
	start := time.Now() //asd:allow determinism wall-clock throughput stamp; excluded from serialized results
	r, err := build(bench, cfg)
	if err != nil {
		return SampledResult{}, err
	}
	budget := cfg.InstrBudget
	r.initFF()
	done := ctx.Done()
	var cpis []float64
	var measured uint64
	for ws := uint64(0); ws < budget; ws += sc.Period {
		// The bounded detailed segments below are usually too short for
		// loopUntil's own stride-1024 context check to fire, so poll once
		// per period here (a period is milliseconds of host time).
		if done != nil {
			select {
			case <-done:
				return SampledResult{}, fmt.Errorf("sim: sampled run aborted: %w", ctx.Err())
			default:
			}
		}
		if ws+sc.Warmup+sc.Detail <= budget {
			if err := r.loopUntil(ctx, ws+sc.Warmup); err != nil {
				return SampledResult{}, err
			}
			c0, i0 := r.progress()
			if err := r.loopUntil(ctx, ws+sc.Warmup+sc.Detail); err != nil {
				return SampledResult{}, err
			}
			c1, i1 := r.progress()
			if i1 > i0 && c1 > c0 {
				cpis = append(cpis, float64(c1-c0)/float64(i1-i0))
				measured += i1 - i0
			}
			if err := r.flushForSample(ctx); err != nil {
				return SampledResult{}, err
			}
		}
		end := ws + sc.Period
		if end > budget {
			end = budget
		}
		var warmFrom uint64
		if sc.FuncWarmup != 0 && end > sc.FuncWarmup {
			warmFrom = end - sc.FuncWarmup
		}
		r.fastForward(end, warmFrom)
	}
	if len(cpis) < 2 {
		return SampledResult{}, fmt.Errorf(
			"sim: budget %d yields %d measurement windows at period %d; need >= 2 for a confidence interval (shrink the period or raise the budget)",
			budget, len(cpis), sc.Period)
	}

	mean, sd := meanStdDev(cpis)
	half := tCritical(sc.Confidence, len(cpis)-1) * sd / math.Sqrt(float64(len(cpis)))
	_, instr := r.progress()
	res := SampledResult{
		Benchmark:            bench,
		Mode:                 cfg.Mode,
		Windows:              len(cpis),
		MeasuredInstructions: measured,
		Instructions:         instr,
		CPIMean:              mean,
		CPIStdDev:            sd,
		CPIHalfWidth:         half,
		CILo:                 mean - half,
		CIHi:                 mean + half,
		Confidence:           sc.Confidence,
		EstCycles:            uint64(mean * float64(instr)),
		EstIPC:               1 / mean,
		Sample:               sc,
	}
	releaseHierarchy(r.hier)
	res.WallSeconds = time.Since(start).Seconds() //asd:allow determinism wall-clock throughput stamp; excluded from serialized results
	return res, nil
}

// progress snapshots the aggregate clock (max thread cycle) and total
// retired instructions; window CPI is the ratio of their deltas.
func (r *runner) progress() (cycles, instr uint64) {
	for _, th := range r.threads {
		if th.Now > cycles {
			cycles = th.Now
		}
		instr += th.Instructions
	}
	return cycles, instr
}

// flushForSample ends a detailed segment: blocked threads are resumed
// through the same flight-completion path the main loop uses (so their
// stall time is accounted), then the MC drains to idle so the next
// detailed window starts from a quiescent memory system.
func (r *runner) flushForSample(ctx context.Context) error {
	for {
		blocked := false
		for _, th := range r.threads {
			b := th.BlockedOn()
			if b == nil {
				continue
			}
			blocked = true
			f := r.flights[b.Line]
			if f == nil {
				return fmt.Errorf("%w: thread %d blocked on line %d with no flight", ErrDeadlock, th.ID, b.Line)
			}
			if err := r.stepUntilFlightDone(ctx, f); err != nil {
				return err
			}
			th.Resume(f.doneAt)
		}
		if !blocked {
			break
		}
	}
	return r.drainMC(ctx)
}

// Fast-forward recent-line filter geometry: a 512-slot direct-mapped
// table per thread, with a 64-access recency window. The L1 holds 256
// lines in 64 4-way sets, so a line loaded within the last 64
// functional accesses is still L1-resident in all but pathological
// conflict patterns, and its walk can be skipped.
const (
	ffFilterSlots  = 512
	ffRecentWindow = 64
)

// initFF allocates the per-thread fast-forward filter tables (sampled
// runs only; the exact path never pays for them).
func (r *runner) initFF() {
	if r.ffSeen != nil {
		return
	}
	r.ffSeen = make([][]mem.Line, len(r.threads))
	r.ffSeenAt = make([][]uint32, len(r.threads))
	r.ffTick = make([]uint32, len(r.threads))
	for i := range r.threads {
		r.ffSeen[i] = make([]mem.Line, ffFilterSlots)
		r.ffSeenAt[i] = make([]uint32, ffFilterSlots)
		// Start ticks past the window so zero-initialized slots never
		// false-match line 0.
		r.ffTick[i] = ffRecentWindow + 1
	}
}

// bumpFFWindow invalidates the filters by sliding every thread's tick
// past the recency window — cheaper than clearing the tables between
// detailed segments.
func (r *runner) bumpFFWindow() {
	for i := range r.ffTick {
		r.ffTick[i] += ffRecentWindow + 1
	}
}

// fastForward functionally executes every thread to the target
// instruction count: cache contents, the PS prefetcher's stream state
// and the memory-side engines' stream-filter/SLH state stay warm, but
// no MC/DRAM timing is modeled — misses fill instantly and the thread
// clock advances by compute gaps alone. Loads to recently-touched
// lines skip the cache walk entirely (see ffRecentWindow) but still
// feed the PS prefetcher, whose streams are kept alive by hits on
// covered lines. Must be called with the MC idle (flushForSample) so
// no flights are outstanding.
//
// warmFrom implements reuse-bounded warming: records retiring before
// the warmFrom instruction count are consumed without any modeling at
// all (the thread clock still advances), and only the tail of the gap
// — the part whose state the next detailed window can actually observe
// — is functionally warmed. Pass 0 to warm the whole gap.
//
// Like loopUntil, this driver stays outside the //asd:hotpath closure
// (record fetch dispatches through the trace.Source interface); the
// per-record leaves it calls — functionalAccess, psWarm — are the
// certified hot path.
func (r *runner) fastForward(target, warmFrom uint64) {
	r.bumpFFWindow()
	for ti, th := range r.threads {
		if warmFrom > th.Instructions && r.ffRecs != nil {
			// Batched runner: skip the unmodeled run of records in bulk.
			// A record is skipped iff its retirement stays below
			// warmFrom — exactly the records the per-record loop below
			// would consume and ignore.
			recs, src := r.ffRecs[ti], r.ffSrcs[ti]
			pos, instr := src.Pos(), th.Instructions
			for pos < len(recs) {
				next := instr + uint64(recs[pos].Gap) + 1
				if next >= warmFrom {
					break
				}
				instr = next
				pos++
			}
			src.Skip(pos - src.Pos())
			th.SkipRetired(instr - th.Instructions)
		}
		seen, seenAt := r.ffSeen[ti], r.ffSeenAt[ti]
		tick := r.ffTick[ti]
		for th.Instructions < target {
			rec, ok := th.NextRecord()
			if !ok {
				break
			}
			if th.Instructions < warmFrom {
				continue
			}
			tick++
			line := mem.LineOf(rec.Addr)
			slot := uint64(line) & (ffFilterSlots - 1)
			if rec.Op == trace.Load && seen[slot] == line && tick-seenAt[slot] <= ffRecentWindow {
				seenAt[slot] = tick
				if r.ps != nil && line != r.lastLine[th.ID] {
					r.lastLine[th.ID] = line
					r.psWarm(th, line)
				}
				continue
			}
			seen[slot], seenAt[slot] = line, tick
			r.functionalAccess(th, line, rec.Op == trace.Store)
		}
		r.ffTick[ti] = tick
	}
}

// functionalAccess is the cheap model for one trace record: a cache
// access with instant fill on miss, plus prefetcher training.
//
//asd:hotpath
func (r *runner) functionalAccess(th *cpu.Thread, line mem.Line, store bool) {
	res := r.hier.Access(line, store, th.Now)
	psObserve := r.ps != nil && line != r.lastLine[th.ID]
	if r.ps != nil {
		r.lastLine[th.ID] = line
	}
	if res.Level == cache.Memory {
		r.hier.Fill(line, store)
		// In detailed mode every Read entering the MC trains the
		// memory-side engine; the functional equivalent is each demand
		// miss.
		if len(r.engines) > 0 {
			r.engines[th.ID%len(r.engines)].ObserveRead(line, th.Now)
		}
	}
	if psObserve {
		r.psWarm(th, line)
	}
}

// psWarm feeds the processor-side prefetcher an L1 miss and applies its
// requested prefetches as instant fills, keeping its stream state and
// the cache contents consistent with what detailed mode would produce.
//
//asd:hotpath
func (r *runner) psWarm(th *cpu.Thread, line mem.Line) {
	for _, req := range r.ps.ObserveMiss(line, th.Now) {
		if r.hier.Contains(req.Line) {
			continue
		}
		if req.IntoL1 {
			r.hier.Fill(req.Line, false)
		} else {
			r.hier.FillL2Only(req.Line)
		}
		// PS prefetch reads reach the MC in detailed mode and train
		// the memory-side engine there; mirror that.
		if len(r.engines) > 0 {
			r.engines[th.ID%len(r.engines)].ObserveRead(req.Line, th.Now)
		}
	}
}

// meanStdDev returns the mean and sample standard deviation.
func meanStdDev(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}

// Two-sided Student-t critical values for df 1..30; beyond 30 the
// normal quantile is close enough for CI purposes.
var (
	tCrit90 = [30]float64{6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697}
	tCrit95 = [30]float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042}
	tCrit99 = [30]float64{63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750}
)

// tCritical returns the two-sided critical value for the given
// confidence level and degrees of freedom.
func tCritical(confidence float64, df int) float64 {
	if df < 1 {
		df = 1
	}
	if df > 30 {
		switch confidence {
		case 0.90:
			return 1.645
		case 0.99:
			return 2.576
		default:
			return 1.960
		}
	}
	switch confidence {
	case 0.90:
		return tCrit90[df-1]
	case 0.99:
		return tCrit99[df-1]
	default:
		return tCrit95[df-1]
	}
}
