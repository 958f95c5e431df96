// Command perfbench is the repository's benchmark. It drives the
// simulator and the farm only through their public Go APIs and the HTTP
// API, the way asdsim, figures and asdfarm do, and measures one of four
// workloads:
//
//	kernel   four long exact single-thread runs (MC, DRAM, caches, ASD)
//	sweep    the Figs. 5-7 matrix on a local farm pool with a fresh store
//	service  closed-loop HTTP clients against an in-process local server
//	cluster  the same clients against a coordinator with loopback workers
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics from an untraced run;
// with --trace 1 it runs the workload again with spans recorded around
// every call into a layer, replays each simulator layer's recorded input
// in isolation, and reports the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md in this directory documents every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"asdsim/internal/farm"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark invocation: its arguments, its operation and
// check accounting, and the metrics it reports.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	// nproc is the farm's worker count and the service client count.
	nproc int
	// outDir holds this invocation's stores; scratch numbers them.
	outDir  string
	scratch int

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	order             []string
	notes             []string

	// digests maps a cell key to its first result digest; repeats of a
	// cell must reproduce it.
	digests map[string]string
	// traceInstr memoizes the instructions each thread's trace holds at
	// a budget.
	traceInstr map[traceID]uint64
	spans      *spanLog
}

// op counts one attempted operation (a cell, a job or a replay); ok
// false counts it as failed and records why.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.problems) < 50 {
			b.problems = append(b.problems, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// set records a metric for the final summary, in report order.
func (b *bench) set(name string, v float64, unit string) {
	if _, dup := b.metrics[name]; !dup {
		b.order = append(b.order, name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a human-readable line printed before the metrics.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// resultDigest is the SHA-256 of a result's JSON form, which excludes
// its wall-clock fields, so it depends only on simulated behaviour.
func resultDigest(res *sim.Result) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// traceID names one thread's workload trace at a budget.
type traceID struct {
	bench        string
	seed, budget uint64
	thread       int
}

// wantInstructions is what a cell must retire: each thread runs whole
// trace records until it reaches the budget, so it retires exactly the
// instructions of its trace materialized at that budget.
func (b *bench) wantInstructions(s farm.Spec) (uint64, error) {
	prof, err := workload.ByName(s.Benchmark)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for t := 0; t < s.Config.Threads; t++ {
		id := traceID{bench: s.Benchmark, seed: s.Config.Seed, budget: s.Config.InstrBudget, thread: t}
		n, ok := b.traceInstr[id]
		if !ok {
			mt, err := workload.Materialize(prof, s.Config.Seed, t, s.Config.InstrBudget)
			if err != nil {
				return 0, err
			}
			n = mt.Instructions
			b.traceInstr[id] = n
		}
		sum += n
	}
	return sum, nil
}

// prepareChecks computes the expected instruction counts of cells
// before a measured pass, so the pass does not pay for them.
func (b *bench) prepareChecks(specs []farm.Spec) error {
	for _, s := range specs {
		if _, err := b.wantInstructions(s); err != nil {
			return err
		}
	}
	return nil
}

// cellProblem applies the per-cell output checks and returns "" when
// they hold: the cell succeeded, it retired its budget (whole records,
// at least budget x threads), and a repeat of the cell reproduces the
// first result's digest.
func (b *bench) cellProblem(s farm.Spec, errText string, instr uint64, digest string) string {
	name := specName(s)
	if errText != "" {
		return name + ": " + errText
	}
	want, err := b.wantInstructions(s)
	if err != nil {
		return fmt.Sprintf("%s: %v", name, err)
	}
	if instr != want || want < s.Config.InstrBudget*uint64(s.Config.Threads) {
		return fmt.Sprintf("%s: retired %d instructions, want %d (budget %d x %d threads)",
			name, instr, want, s.Config.InstrBudget, s.Config.Threads)
	}
	key := s.Key()
	if prev, ok := b.digests[key]; ok && prev != digest {
		return fmt.Sprintf("%s: repeat digest %.12s differs from first %.12s", name, digest, prev)
	}
	b.digests[key] = digest
	return ""
}

// checkCell counts one cell as an operation and checks its result.
func (b *bench) checkCell(s farm.Spec, res *sim.Result, errText string) bool {
	if res == nil {
		if errText == "" {
			errText = "no result"
		}
		return b.op(false, "%s: failed: %s", specName(s), errText)
	}
	p := b.cellProblem(s, errText, res.Instructions, resultDigest(res))
	return b.op(p == "", "%s", p)
}

// setDigest fixes the workload digest over the given cell keys: the
// SHA-256 of their sorted (key, result digest) pairs.
func (b *bench) setDigest(keys []string) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, k := range sorted {
		fmt.Fprintf(h, "%s %s\n", k, b.digests[k])
	}
	b.note("digest %s %s (%d cells)", b.workload, hex.EncodeToString(h.Sum(nil))[:32], len(sorted))
}

// scratchDir names a fresh directory under outDir.
func (b *bench) scratchDir(prefix string) string {
	b.scratch++
	return filepath.Join(b.outDir, fmt.Sprintf("%s-%d", prefix, b.scratch))
}

// untracedPart is the share of a traced run spent on an untraced pass,
// which the tracing overhead is measured against; tracedPart is the
// rest, so a traced run measures for --seconds in all.
func (b *bench) untracedPart() time.Duration { return b.seconds / 4 }
func (b *bench) tracedPart() time.Duration   { return b.seconds - b.untracedPart() }

// reportEndToEnd sets the end-to-end metrics shared by every workload.
func (b *bench) reportEndToEnd(setups []float64, p passes, cr cellResults) error {
	t, err := loadPaperGains()
	if err != nil {
		return err
	}
	gain, rows := gainError(t, cr)
	b.op(rows > 0, "no suite-average gain is covered by the workload's cells")
	b.set("setup_s", median(setups), "s")
	b.set("sim_minstr_per_s", median(p.minstrPerS), "Minstr/s")
	b.set("cells_per_s", median(p.cellsPerS), "1/s")
	tailMs, pct := tail(p.jobMs)
	p50 := median(p.jobMs)
	if p.passP50Ms != nil {
		p50 = median(p.passP50Ms)
	}
	b.set("job_p50_ms", p50, "ms")
	b.set("job_tail_ms", tailMs, "ms")
	b.note("job_tail_ms is p%g of %d samples", pct, len(p.jobMs))
	b.set("peak_heap_mb", p.win.peakHeapMB, "MiB")
	b.set("alloc_kb_per_cell", frac(p.win.allocBytes/1024, float64(p.cells)), "KiB")
	b.set("ops_ok_frac", frac(float64(b.attempted-b.failed), float64(b.attempted)), "frac")
	b.note("ops_failed_frac %g (%d of %d operations)", frac(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	b.set("gain_err_pp", gain, "pp")
	b.note("gain_err_pp over %d of the paper's 9 suite-average gains", rows)
	return nil
}

var workloads = map[string]func(*bench) error{
	"kernel":  runKernel,
	"sweep":   runSweep,
	"service": runService,
	"cluster": runCluster,
}

func main() {
	name := flag.String("workload", "", "workload: kernel, sweep, service or cluster")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload kernel|sweep|service|cluster --seed N (N>0) --seconds S --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		nproc:    runtime.GOMAXPROCS(0),
		metrics:  map[string]metric{},
		digests:  map[string]string{},

		traceInstr: map[traceID]uint64{},
	}
	b.outDir = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d-trace%d-pid%d", b.workload, b.seed, *trace, os.Getpid()))
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if b.traced {
		b.spans = newSpanLog()
	}
	err := fn(b)
	if err == nil && b.spans != nil {
		err = b.spans.write(filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed)))
	}
	// Stores are scratch state; only the span file is kept.
	os.RemoveAll(b.outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, n := range b.order {
		m := b.metrics[n]
		fmt.Printf("%-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(summary{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(out)))
}
