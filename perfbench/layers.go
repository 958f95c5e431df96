package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/obs"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// simMetrics are the per-layer metrics that are simulated quantities:
// they repeat exactly for a seed, and a traced run prints their digest.
var simMetrics = []string{
	"cache.accesses", "cache.l1_hit_frac", "cache.l2_hit_frac", "cache.l3_hit_frac",
	"core.decisions", "core.epoch_rolls",
	"mc.skip_frac", "mc.enqueues", "mc.bank_conflicts", "mc.pf_nominated", "mc.pf_issued",
	"mc.pf_dropped", "mc.pf_late", "mc.pf_wasted", "mc.pb_hits", "mc.caq_mean",
	"mc.pf_useful_frac", "mc.coverage",
	"dram.accesses", "dram.row_hit_frac", "dram.refreshes",
	"cpu.stall_frac", "prefetch.ps_issued",
}

// replayReps is how many times each layer replay is timed; the median
// is kept.
const replayReps = 3

// layerRun is what a traced workload measured around its own calls
// into the farm, the HTTP API and the cluster; reportLayers adds the
// simulator-layer replays and prints every per-layer metric.
type layerRun struct {
	// cells is the workload's deterministic cell set and results their
	// results, in the same order.
	cells   []farm.Spec
	results []*sim.Result
	// replay is the cells whose layer inputs are recorded and replayed.
	replay []farm.Spec

	traceCache workload.TraceCacheStats
	pass       windowStats
	// untracedRate and tracedRate are cells per second of an untraced
	// and a traced pass of the same workload in this process.
	untracedRate, tracedRate float64

	queueWait, exec   []float64 // ms per executed cell
	resumed, outcomes int
	submit, pollLag   []float64 // ms per job
	rpc               []float64 // ms per RPC call
	rpcCalls, leased  int       // RPC calls, cells executed on workers
	idlePolls         uint64
	leaseWait         []float64 // ms per leased cell
}

// reportLayers runs the simulator-layer replays and sets every
// per-layer metric. Layers the workload does not cross report 0.
func (b *bench) reportLayers(lr *layerRun) error {
	nsRec, err := materializeNs(lr.cells)
	if err != nil {
		return err
	}
	b.set("workload.ns_per_record", nsRec, "ns")
	tc := lr.traceCache
	b.set("workload.trace_cache_hit_frac", frac(float64(tc.Hits), float64(tc.Hits+tc.Misses)), "frac")

	setupMs, err := simSetupMs(lr.cells)
	if err != nil {
		return err
	}
	b.set("sim.setup_ms", setupMs, "ms")

	if err := b.replayLayers(lr.replay); err != nil {
		return err
	}

	var stall, cycles, psIssued float64
	for _, r := range lr.results {
		stall += float64(r.StallCycles)
		cycles += float64(r.Cycles)
		psIssued += float64(r.PSIssued)
	}
	b.set("cpu.stall_frac", frac(stall, cycles), "frac")
	b.set("prefetch.ps_issued", psIssued, "count")

	b.set("farm.queue_wait_ms", mean(lr.queueWait), "ms")
	b.set("farm.exec_ms", mean(lr.exec), "ms")
	b.set("farm.resumed_frac", frac(float64(lr.resumed), float64(lr.outcomes)), "frac")
	appendUS, lookupUS, err := b.storeTimings(lr.cells, lr.results)
	if err != nil {
		return err
	}
	b.set("farm.store_append_us", appendUS, "us")
	b.set("farm.store_lookup_us", lookupUS, "us")
	b.set("farm.submit_ms", mean(lr.submit), "ms")
	b.set("farm.poll_lag_ms", mean(lr.pollLag), "ms")

	b.set("cluster.rpc_ms", mean(lr.rpc), "ms")
	b.set("cluster.rpc_calls_per_cell", frac(float64(lr.rpcCalls), float64(lr.leased)), "calls")
	b.set("cluster.idle_polls", float64(lr.idlePolls), "count")
	b.set("cluster.lease_wait_ms", mean(lr.leaseWait), "ms")

	h := sha256.New()
	for _, n := range simMetrics {
		fmt.Fprintf(h, "%s %v\n", n, b.metrics[n].Value)
	}
	b.note("sim-counts %s %s", b.workload, hex.EncodeToString(h.Sum(nil))[:32])

	b.set("runtime.gc_cpu_frac", lr.pass.gcCPUFrac, "frac")
	b.set("runtime.gc_cycles", lr.pass.gcCycles, "count")
	overhead := frac(lr.untracedRate, lr.tracedRate) - 1
	b.set("trace.overhead_frac", overhead, "frac")
	b.note("tracing overhead on %s: untraced %.4g cells/s, traced %.4g cells/s (%+.1f%%)",
		b.workload, lr.untracedRate, lr.tracedRate, 100*overhead)
	return nil
}

// materializeNs times workload.Materialize of every distinct trace the
// cells consume, per record.
func materializeNs(cells []farm.Spec) (float64, error) {
	seen := map[traceID]bool{}
	var total time.Duration
	var records int
	for _, c := range cells {
		prof, err := workload.ByName(c.Benchmark)
		if err != nil {
			return 0, err
		}
		for t := 0; t < c.Config.Threads; t++ {
			id := traceID{bench: c.Benchmark, seed: c.Config.Seed, budget: c.Config.InstrBudget, thread: t}
			if seen[id] {
				continue
			}
			seen[id] = true
			start := time.Now()
			mt, err := workload.Materialize(prof, c.Config.Seed, t, c.Config.InstrBudget)
			total += time.Since(start)
			if err != nil {
				return 0, err
			}
			records += len(mt.Records)
		}
	}
	return frac(float64(total.Nanoseconds()), float64(records)), nil
}

// simSetupMs is the mean time of sim.Run over the cells' configs at a
// one-instruction budget: building the system, not simulating it.
func simSetupMs(cells []farm.Spec) (float64, error) {
	start := time.Now()
	for _, c := range cells {
		cfg := c.Config
		cfg.InstrBudget = 1
		if _, err := sim.Run(c.Benchmark, cfg); err != nil {
			return 0, fmt.Errorf("%s at one instruction: %w", specName(c), err)
		}
	}
	return frac(float64(time.Since(start).Nanoseconds())/1e6, float64(len(cells))), nil
}

// storeTimings appends the cells' outcomes to a scratch store and looks
// each up again, timing both; a lookup must return the appended result.
func (b *bench) storeTimings(cells []farm.Spec, results []*sim.Result) (appendUS, lookupUS float64, err error) {
	dir := b.scratchDir("scratch-store")
	st, err := farm.OpenStore(dir)
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	var appendT, lookupT time.Duration
	for i, c := range cells {
		o := farm.Outcome{Key: c.Key(), Benchmark: c.Benchmark, Mode: c.Mode, Engine: c.Config.Engine.String(),
			Seed: c.Config.Seed, Result: results[i], Attempts: 1}
		start := time.Now()
		err := st.Append(o)
		appendT += time.Since(start)
		if err != nil {
			return 0, 0, err
		}
	}
	for i, c := range cells {
		start := time.Now()
		got, ok := st.Lookup(c.Key())
		lookupT += time.Since(start)
		b.op(ok && got.Result != nil && resultDigest(got.Result) == resultDigest(results[i]),
			"store replay: %s/%v lookup does not return the appended result", c.Benchmark, c.Mode)
	}
	n := float64(len(cells))
	return frac(float64(appendT.Nanoseconds())/1e3, n), frac(float64(lookupT.Nanoseconds())/1e3, n), nil
}

// medianDur times fn replayReps times and returns the median.
func medianDur(fn func() time.Duration) time.Duration {
	var xs []float64
	for i := 0; i < replayReps; i++ {
		xs = append(xs, float64(fn()))
	}
	return time.Duration(median(xs))
}

// replayLayers records each replay cell's layer inputs through the
// probe bus, replays them into each layer's public constructor and
// entry points, validates each replay against the recorded run and
// sets the cache, core, mc and dram metrics.
func (b *bench) replayLayers(cells []farm.Spec) error {
	var (
		cacheT, coreT, mcT, dramT time.Duration
		levels                    [5]uint64
		coreReads                 int
		decisions, epochs         uint64
		steps, spanCycles         uint64
		caqSum, regularReads      uint64
		covered                   uint64
		dramAccesses, rowHits     uint64
		counts                    [obs.NumKinds]uint64
	)
	for _, c := range cells {
		name := fmt.Sprintf("%s/%v", c.Benchmark, c.Mode)
		rec, res, err := record(c.Config, c.Benchmark)
		if err != nil {
			return fmt.Errorf("recording %s: %w", name, err)
		}
		for k := range counts {
			counts[k] += rec.counts[k]
		}

		// cache: exact only without processor-side prefetch fills.
		if c.Mode == sim.NP || c.Mode == sim.MS {
			var h1, h2, h3 float64
			var lv [5]uint64
			cacheT += medianDur(func() time.Duration {
				h, l, el := replayCache(c.Config, rec.cacheOps)
				lv = l
				h1, h2, h3 = h.L1.HitRate(), h.L2.HitRate(), h.L3.HitRate()
				return el
			})
			b.op(h1 == res.L1HitRate && h2 == res.L2HitRate && h3 == res.L3HitRate,
				"cache replay %s: hit rates %.6f/%.6f/%.6f, run %.6f/%.6f/%.6f", name, h1, h2, h3,
				res.L1HitRate, res.L2HitRate, res.L3HitRate)
			n := lv[1] + lv[2] + lv[3] + lv[4]
			b.op(n == rec.counts[obs.KindCacheAccess],
				"cache replay %s: replayed %d accesses, recorded %d", name, n, rec.counts[obs.KindCacheAccess])
			for i := range lv {
				levels[i] += lv[i]
			}
		}

		// mc: a validation replay capturing the engines' inputs, then
		// timed replays with bare engines.
		in := &coreInputs{}
		v := replayMC(c.Config, rec, in)
		b.op(v.exact && v.stats == res.MC && v.coverage == res.Coverage && v.useful == res.UsefulPrefetchFrac,
			"mc replay %s: exact=%v stats equal=%v coverage %.6f/%.6f useful %.6f/%.6f", name, v.exact,
			v.stats == res.MC, v.coverage, res.Coverage, v.useful, res.UsefulPrefetchFrac)
		mcCell := medianDur(func() time.Duration { return replayMC(c.Config, rec, nil).elapsed })

		// core: the engines alone, on the captured inputs.
		cyc := rec.stepCycles()
		var coreCell time.Duration
		if c.Mode == sim.MS || c.Mode == sim.PMS {
			var dec, ep uint64
			var noms int
			coreCell = medianDur(func() time.Duration {
				var el time.Duration
				dec, ep, noms, el = replayCore(c.Config, in, cyc)
				return el
			})
			b.op(dec == rec.counts[obs.KindASDPrefetchDecision] && ep == rec.counts[obs.KindASDEpochRoll] && noms == in.nominations,
				"core replay %s: decisions %d/%d epochs %d/%d nominations %d/%d", name,
				dec, rec.counts[obs.KindASDPrefetchDecision], ep, rec.counts[obs.KindASDEpochRoll], noms, in.nominations)
			decisions += dec
			epochs += ep
			coreReads += len(in.reads)
			coreT += coreCell
		}
		// The engines' own time is subtracted from the controller's.
		if mcCell > coreCell {
			mcT += mcCell - coreCell
		}
		steps += uint64(len(cyc))
		if len(cyc) > 0 {
			spanCycles += (cyc[len(cyc)-1]-cyc[0])/4 + 1
		}
		caqSum += rec.caqSum
		regularReads += res.MC.RegularReads
		covered += res.MC.PBHitsEntry + res.MC.PBHitsLate + res.MC.PFMergeHits

		// dram
		var ds = res.DRAM
		dramT += medianDur(func() time.Duration {
			var el time.Duration
			ds, el = replayDRAM(c.Config, rec.dramOps)
			return el
		})
		want := res.DRAM
		b.op(ds.Activations == want.Activations && ds.Reads == want.Reads && ds.Writes == want.Writes &&
			ds.RowHits == want.RowHits && ds.RowMisses == want.RowMisses && ds.RowConflicts == want.RowConflicts,
			"dram replay %s: replayed %+v, run %+v", name, ds, want)
		dramAccesses += uint64(len(rec.dramOps))
		rowHits += ds.RowHits
	}

	l1, l2, l3 := float64(levels[1]), float64(levels[2]), float64(levels[3])
	accesses := l1 + l2 + l3 + float64(levels[4])
	b.set("cache.ns_per_access", frac(float64(cacheT.Nanoseconds()), accesses), "ns")
	b.set("cache.accesses", accesses, "count")
	b.set("cache.l1_hit_frac", frac(l1, accesses), "frac")
	b.set("cache.l2_hit_frac", frac(l2, accesses-l1), "frac")
	b.set("cache.l3_hit_frac", frac(l3, accesses-l1-l2), "frac")

	b.set("core.ns_per_read", frac(float64(coreT.Nanoseconds()), float64(coreReads)), "ns")
	b.set("core.decisions", float64(decisions), "count")
	b.set("core.epoch_rolls", float64(epochs), "count")

	b.set("mc.ns_per_step", frac(float64(mcT.Nanoseconds()), float64(steps)), "ns")
	b.set("mc.skip_frac", 1-frac(float64(steps), float64(spanCycles)), "frac")
	b.set("mc.enqueues", float64(counts[obs.KindMCEnqueue]), "count")
	b.set("mc.bank_conflicts", float64(counts[obs.KindMCBankConflict]), "count")
	b.set("mc.pf_nominated", float64(counts[obs.KindMCPFNominate]), "count")
	b.set("mc.pf_issued", float64(counts[obs.KindMCPFIssue]), "count")
	b.set("mc.pf_dropped", float64(counts[obs.KindMCPFDrop]), "count")
	b.set("mc.pf_late", float64(counts[obs.KindMCPFLate]), "count")
	b.set("mc.pf_wasted", float64(counts[obs.KindMCPFWasted]), "count")
	b.set("mc.pb_hits", float64(counts[obs.KindMCPBHit]), "count")
	b.set("mc.caq_mean", frac(float64(caqSum), float64(steps)), "entries")
	b.set("mc.pf_useful_frac", frac(float64(counts[obs.KindMCPBHit]+counts[obs.KindMCPFLate]), float64(counts[obs.KindMCPFIssue])), "frac")
	b.set("mc.coverage", frac(float64(covered), float64(regularReads)), "frac")

	b.set("dram.ns_per_access", frac(float64(dramT.Nanoseconds()), float64(dramAccesses)), "ns")
	b.set("dram.accesses", float64(dramAccesses), "count")
	b.set("dram.row_hit_frac", frac(float64(rowHits), float64(dramAccesses)), "frac")
	b.set("dram.refreshes", float64(counts[obs.KindDRAMRefresh]), "count")
	return nil
}
