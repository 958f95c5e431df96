package farm

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	prom "asdsim/internal/metrics"
)

// sloClock is a settable fake clock for SLO tests.
type sloClock struct{ t time.Time }

func (c *sloClock) now() time.Time          { return c.t }
func (c *sloClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func renderSLO(t *testing.T, tr *SLOTracker) string {
	t.Helper()
	reg := prom.NewRegistry()
	tr.addTo(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	if err := prom.Lint([]byte(out)); err != nil {
		t.Fatalf("slo exposition fails lint: %v", err)
	}
	return out
}

// wantSample asserts the value of one exposition series, within float
// rounding: the budget 1-objective is inexact in binary.
func wantSample(t *testing.T, out, series string, want float64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		v, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		got, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("%s = %v, want %v:\n%s", series, got, want, out)
		}
		return
	}
	t.Fatalf("exposition missing %s:\n%s", series, out)
}

func TestSLOTrackerDefaults(t *testing.T) {
	out := renderSLO(t, NewSLOTracker(nil))
	wantSample(t, out, `farm_slo_objective{slo="availability"}`, 0.999)
	wantSample(t, out, `farm_slo_objective{slo="latency"}`, 0.95)
	wantSample(t, out, `farm_slo_latency_threshold_seconds`, 30)
}

func TestSLOBurnRates(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	tr := NewSLOTracker(clk.now)

	// 998 good + 2 bad runs: 0.2% failures against a 0.1% budget =>
	// burn 2. 50 of the 1000 are slow (>30s): 5% against a 5% budget
	// => burn 1.
	for i := 0; i < 1000; i++ {
		wall := 0.5
		if i < 50 {
			wall = 31
		}
		tr.RecordRun(i >= 2, wall)
	}

	out := renderSLO(t, tr)
	wantSample(t, out, `farm_slo_availability_burn_rate{window="5m"}`, 2)
	wantSample(t, out, `farm_slo_availability_burn_rate{window="6h"}`, 2)
	wantSample(t, out, `farm_slo_latency_burn_rate{window="5m"}`, 1)
	wantSample(t, out, `farm_slo_error_budget_remaining{slo="availability"}`, -1)
	wantSample(t, out, `farm_slo_error_budget_remaining{slo="latency"}`, 0)
}

func TestSLOWindowsAge(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	tr := NewSLOTracker(clk.now)

	tr.RecordRun(false, 0.1) // one failure now
	clk.advance(10 * time.Minute)
	tr.RecordRun(true, 0.1) // one success later

	// The failure has aged out of the 5m window but not the 30m one:
	// 1 bad of 2 against a 0.1% budget => burn 500.
	out := renderSLO(t, tr)
	wantSample(t, out, `farm_slo_availability_burn_rate{window="5m"}`, 0)
	wantSample(t, out, `farm_slo_availability_burn_rate{window="30m"}`, 500)

	// Push past the ring horizon: everything windowed ages out, but the
	// lifetime budget keeps the spend.
	clk.advance(7 * time.Hour)
	out = renderSLO(t, tr)
	wantSample(t, out, `farm_slo_availability_burn_rate{window="6h"}`, 0)
	wantSample(t, out, `farm_slo_error_budget_remaining{slo="availability"}`, -499)
}

func TestSLOEmptyTrackerIsQuiet(t *testing.T) {
	tr := NewSLOTracker((&sloClock{t: time.Unix(1_700_000_000, 0)}).now)
	out := renderSLO(t, tr)
	if !strings.Contains(out, `farm_slo_error_budget_remaining{slo="availability"} 1`) {
		t.Fatalf("untouched budget should be whole:\n%s", out)
	}
	for _, w := range sloWindows {
		if !strings.Contains(out, `farm_slo_availability_burn_rate{window="`+w.label+`"} 0`) {
			t.Fatalf("empty window %s should burn 0:\n%s", w.label, out)
		}
	}
}

func TestMetricsFeedsAttachedSLO(t *testing.T) {
	clk := &sloClock{t: time.Unix(1_700_000_000, 0)}
	m := NewMetrics()
	tr := NewSLOTracker(clk.now)
	m.AttachSLO(tr)

	spec := &Spec{Benchmark: "pointer-chase"}
	res := fakeResult(42)
	m.finish(spec, &Outcome{Benchmark: spec.Benchmark, WallMS: 31_000, Err: "boom"})
	m.finish(spec, &Outcome{Benchmark: spec.Benchmark, WallMS: 10, Result: &res})

	tr.mu.Lock()
	total, bad, slow := tr.total, tr.bad, tr.slow
	tr.mu.Unlock()
	if total != 2 || bad != 1 || slow != 1 {
		t.Fatalf("tracker saw total=%d bad=%d slow=%d, want 2/1/1", total, bad, slow)
	}

	// The SLO families ride along on the ordinary metrics exposition.
	reg := prom.NewRegistry()
	m.AddTo(reg)
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(sb.String(), "farm_slo_objective") {
		t.Fatalf("AddTo should render SLO families when attached:\n%s", sb.String())
	}
}
