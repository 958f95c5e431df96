package main

import (
	"time"

	"asdsim/internal/cache"
	"asdsim/internal/core"
	"asdsim/internal/dram"
	"asdsim/internal/mc"
	"asdsim/internal/mem"
	"asdsim/internal/obs"
	"asdsim/internal/prefetch"
	"asdsim/internal/sim"
)

// recorder is a probe-bus sink that keeps, for one simulation run, the
// input sequence of each simulator layer in the order the run produced
// it, compactly enough to replay a multi-million-instruction run:
//
//   - cache: every demand access (KindCacheAccess) and every fill point
//     (KindMCComplete, the delivery after which the runner fills);
//   - mc: every enqueued command, positioned either between two steps or
//     inside the step whose delivery callback enqueued it, every step's
//     cycle (KindMCQueues closes each step) and the end-of-run LPQ flush;
//   - dram: every column access (KindDRAMAccess).
type recorder struct {
	counts [obs.NumKinds]uint64

	cacheOps []uint64 // line<<2 | cacheLoad/cacheStore/cacheFill

	mcOps  []uint64 // cycle<<2|opStep, cmd index<<2|opEnqueue, opFlush
	cmds   []mem.Command
	compls []completion
	inStep bool
	flush  bool
	caqSum uint64

	dramOps []dramOp
}

const (
	cacheLoad = iota
	cacheStore
	cacheFill
)

const (
	opStep = iota
	opEnqueue
	opFlush
)

// completion is one delivery inside a step and the commands the
// delivery callback enqueued (cmds[first:first+n]).
type completion struct {
	line     mem.Line
	first, n int32
}

type dramOp struct {
	line  mem.Line
	cycle uint64 // DRAM cycles
	flags uint8  // bit 0 write, bit 1 memory-side prefetch
}

// Emit implements obs.Sink.
func (r *recorder) Emit(e obs.Event) {
	r.counts[e.Kind]++
	switch e.Kind {
	case obs.KindCacheAccess:
		op := uint64(cacheLoad)
		if e.V2 == 1 {
			op = cacheStore
		}
		r.cacheOps = append(r.cacheOps, uint64(e.Line)<<2|op)
	case obs.KindMCComplete:
		r.cacheOps = append(r.cacheOps, uint64(e.Line)<<2|cacheFill)
		r.inStep = true
		r.compls = append(r.compls, completion{line: e.Line, first: int32(len(r.cmds))})
	case obs.KindMCEnqueue:
		cmd := mem.Command{Kind: mem.Read, Line: e.Line, Thread: int(e.Thread), Arrival: e.Cycle, ID: e.ID}
		if e.V1 == 1 {
			cmd.Kind = mem.Write
		}
		if r.inStep {
			// Only a delivery callback enqueues inside a step.
			r.compls[len(r.compls)-1].n++
		} else {
			r.mcOps = append(r.mcOps, uint64(len(r.cmds))<<2|opEnqueue)
		}
		r.cmds = append(r.cmds, cmd)
	case obs.KindMCQueues:
		r.inStep = false
		r.mcOps = append(r.mcOps, e.Cycle<<2|opStep)
		r.caqSum += uint64(e.V2)
	case obs.KindMCPFDrop:
		// A flush with an empty LPQ emits nothing and changes nothing,
		// so only a flush that dropped prefetches needs replaying.
		if obs.DropCause(e.V2) == obs.DropFlushed && !r.flush {
			r.flush = true
			r.mcOps = append(r.mcOps, opFlush)
		}
	case obs.KindDRAMAccess:
		r.dramOps = append(r.dramOps, dramOp{line: e.Line, cycle: e.Cycle / mem.CPUCyclesPerDRAMCycle, flags: uint8(e.V3)})
	}
}

// stepCycles returns the cycle of every recorded MC step.
func (r *recorder) stepCycles() []uint64 {
	var out []uint64
	for _, op := range r.mcOps {
		if op&3 == opStep {
			out = append(out, op>>2)
		}
	}
	return out
}

// record runs one cell with the recorder on its probe bus.
func record(spec sim.Config, bench string) (*recorder, sim.Result, error) {
	rec := &recorder{}
	cfg := spec
	cfg.Obs = obs.NewBus(rec)
	res, err := sim.Run(bench, cfg)
	return rec, res, err
}

// replayCache feeds the recorded accesses into a fresh hierarchy,
// filling each missed line at its recorded delivery, as the runner
// does. It is exact for runs without processor-side prefetching, whose
// fills are not on the probe bus.
func replayCache(cfg sim.Config, ops []uint64) (h *cache.Hierarchy, levels [5]uint64, elapsed time.Duration) {
	h = cache.NewHierarchy(cfg.Cache)
	pending := make(map[mem.Line]bool) // missed line -> dirty on fill
	start := time.Now()
	for _, op := range ops {
		line := mem.Line(op >> 2)
		switch op & 3 {
		case cacheLoad, cacheStore:
			store := op&3 == cacheStore
			res := h.Access(line, store, 0)
			levels[res.Level]++
			if res.Level == cache.Memory {
				pending[line] = pending[line] || store
			}
		case cacheFill:
			if dirty, ok := pending[line]; ok {
				delete(pending, line)
				h.Fill(line, dirty)
			}
		}
	}
	return h, levels, time.Since(start)
}

// coreInputs is the ASD engines' input sequence, captured by
// recordingEngine during the MC replay: each Read with the index of the
// step that presented it. Every step ends with a Tick of every engine.
type coreInputs struct {
	step        int32
	reads       []coreRead
	nominations int
}

type coreRead struct {
	line   mem.Line
	now    uint64
	step   int32
	thread int32
}

// recordingEngine wraps an ASD engine to capture its inputs.
type recordingEngine struct {
	e      *core.Engine
	in     *coreInputs
	thread int32
}

func (w *recordingEngine) ObserveRead(line mem.Line, now uint64) []mem.Line {
	w.in.reads = append(w.in.reads, coreRead{line: line, now: now, step: w.in.step, thread: w.thread})
	out := w.e.ObserveRead(line, now)
	w.in.nominations += len(out)
	return out
}

func (w *recordingEngine) Tick(now uint64) { w.e.Tick(now) }

// mcReplay is what one replay of the memory controller observed.
type mcReplay struct {
	stats    mc.Stats
	coverage float64
	useful   float64
	exact    bool // every delivery matched the recorded one, in order
	elapsed  time.Duration
}

// replayMC replays the recorded commands and steps into a fresh
// controller over a fresh DRAM, with fresh ASD engines when the mode
// has memory-side prefetching. A non-nil in wraps the engines to
// capture their inputs.
func replayMC(cfg sim.Config, r *recorder, in *coreInputs) mcReplay {
	d := dram.New(cfg.DRAM)
	var engines []prefetch.MSEngine
	var adaptive *core.AdaptiveScheduler
	if cfg.Mode == sim.MS || cfg.Mode == sim.PMS {
		for t := 0; t < cfg.Threads; t++ {
			e := core.NewEngine(cfg.ASD)
			if in != nil {
				engines = append(engines, &recordingEngine{e: e, in: in, thread: int32(t)})
			} else {
				engines = append(engines, e)
			}
		}
		adaptive = core.NewAdaptiveScheduler(cfg.Sched)
	}
	ctrl := mc.New(cfg.MC, d, engines, adaptive)
	out := mcReplay{exact: true}
	next := 0
	ctrl.SetReadDone(func(cmd mem.Command, _ uint64) {
		if next >= len(r.compls) || r.compls[next].line != cmd.Line {
			out.exact = false
			next++
			return
		}
		c := r.compls[next]
		next++
		for _, wb := range r.cmds[c.first : c.first+c.n] {
			ctrl.Enqueue(wb)
		}
	})
	var step int32
	start := time.Now()
	for _, op := range r.mcOps {
		switch op & 3 {
		case opEnqueue:
			ctrl.Enqueue(r.cmds[op>>2])
		case opFlush:
			ctrl.FlushLPQ()
		case opStep:
			if in != nil {
				in.step = step
			}
			ctrl.Step(op >> 2)
			step++
		}
	}
	out.elapsed = time.Since(start)
	out.exact = out.exact && next == len(r.compls)
	out.stats = ctrl.Stats()
	out.coverage = ctrl.Coverage()
	out.useful = ctrl.UsefulPrefetchFrac()
	return out
}

// replayCore replays captured engine inputs into fresh ASD engines:
// each step's Reads, then a Tick of every engine at the step's cycle.
func replayCore(cfg sim.Config, in *coreInputs, steps []uint64) (decisions, epochs uint64, nominations int, elapsed time.Duration) {
	engines := make([]*core.Engine, cfg.Threads)
	for t := range engines {
		engines[t] = core.NewEngine(cfg.ASD)
	}
	next := 0
	start := time.Now()
	for k, cyc := range steps {
		for next < len(in.reads) && int(in.reads[next].step) == k {
			rd := in.reads[next]
			nominations += len(engines[rd.thread].ObserveRead(rd.line, rd.now))
			next++
		}
		for _, e := range engines {
			e.Tick(cyc)
		}
	}
	elapsed = time.Since(start)
	for _, e := range engines {
		decisions += e.PrefetchDecisions
		epochs += e.Epochs()
	}
	return decisions, epochs, nominations, elapsed
}

// replayDRAM issues the recorded column accesses into a fresh DRAM at
// their recorded cycles. Lines are decoded before timing starts, as the
// controller decodes at admission.
func replayDRAM(cfg sim.Config, ops []dramOp) (dram.Stats, time.Duration) {
	d := dram.New(cfg.DRAM)
	decs := make([]dram.Decoded, len(ops))
	for i, op := range ops {
		decs[i] = d.Decode(op.line)
	}
	start := time.Now()
	for i, op := range ops {
		d.IssueD(op.line, decs[i], op.flags&1 != 0, op.flags&2 != 0, op.cycle)
	}
	return d.Stats(), time.Since(start)
}
