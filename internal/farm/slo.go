package farm

import (
	"sync"
	"time"

	prom "asdsim/internal/metrics"
)

// This file is the farm's SLO layer: availability ("runs succeed") and
// latency ("runs finish fast enough") objectives tracked as error
// budgets with multi-window burn rates, the standard fast/slow-burn
// alerting shape. A burn rate of 1.0 means the budget is being spent
// exactly at the rate that exhausts it at the objective horizon;
// sustained rates far above it on the short windows mean pages, on the
// long windows mean tickets.

// The objectives: availabilityObjective of runs must succeed, and
// latencyObjective of runs must finish within latencyThresholdSec.
const (
	availabilityObjective = 0.999
	latencyObjective      = 0.95
	latencyThresholdSec   = 30
)

// sloWindows are the burn-rate evaluation windows, label value and
// width in minutes.
var sloWindows = []struct {
	label string
	mins  int64
}{
	{"5m", 5}, {"30m", 30}, {"1h", 60}, {"6h", 360},
}

// sloRingMinutes covers the longest window plus the in-progress
// minute.
const sloRingMinutes = 361

// sloBucket is one minute of run traffic.
type sloBucket struct {
	minute int64 // unix minute stamp; 0 = never used
	total  uint64
	bad    uint64 // failed runs
	slow   uint64 // runs over the latency threshold
}

// SLOTracker accumulates run outcomes into a minute-bucket ring and
// computes windowed burn rates on scrape. Attach one to a Metrics with
// AttachSLO; it is safe for concurrent use.
type SLOTracker struct {
	now func() time.Time

	mu    sync.Mutex
	ring  [sloRingMinutes]sloBucket
	total uint64
	bad   uint64
	slow  uint64
}

// NewSLOTracker builds a tracker. now is injectable for tests; nil
// means the system clock.
func NewSLOTracker(now func() time.Time) *SLOTracker {
	if now == nil {
		now = time.Now
	}
	return &SLOTracker{now: now}
}

// RecordRun feeds one terminal run into the tracker.
func (t *SLOTracker) RecordRun(ok bool, wallSec float64) {
	minute := t.now().Unix() / 60
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.ring[minute%sloRingMinutes]
	if b.minute != minute {
		*b = sloBucket{minute: minute}
	}
	b.total++
	t.total++
	if !ok {
		b.bad++
		t.bad++
	}
	if wallSec > latencyThresholdSec {
		b.slow++
		t.slow++
	}
}

// window sums the ring over the trailing mins minutes.
func (t *SLOTracker) windowLocked(nowMinute, mins int64) (total, bad, slow uint64) {
	for i := range t.ring {
		b := &t.ring[i]
		if b.minute == 0 || b.minute <= nowMinute-mins || b.minute > nowMinute {
			continue
		}
		total += b.total
		bad += b.bad
		slow += b.slow
	}
	return total, bad, slow
}

// burn converts a bad fraction into a burn rate against an objective:
// badFraction / (1 - objective).
func burn(bad, total uint64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - objective)
}

// addTo renders the SLO families into reg.
func (t *SLOTracker) addTo(reg *prom.Registry) {
	nowMinute := t.now().Unix() / 60
	t.mu.Lock()
	defer t.mu.Unlock()

	obj := reg.Gauge("farm_slo_objective", "Configured objective per SLO.", "slo")
	obj.With("availability").Set(availabilityObjective)
	obj.With("latency").Set(latencyObjective)
	reg.Gauge("farm_slo_latency_threshold_seconds",
		"Run wall-clock bound the latency SLO counts against.").With().Set(latencyThresholdSec)

	avail := reg.Gauge("farm_slo_availability_burn_rate",
		"Failed-run budget burn rate over the trailing window (1.0 = spending exactly the budget).",
		"window")
	lat := reg.Gauge("farm_slo_latency_burn_rate",
		"Slow-run budget burn rate over the trailing window (1.0 = spending exactly the budget).",
		"window")
	for _, w := range sloWindows {
		total, bad, slow := t.windowLocked(nowMinute, w.mins)
		avail.With(w.label).Set(burn(bad, total, availabilityObjective))
		lat.With(w.label).Set(burn(slow, total, latencyObjective))
	}

	rem := reg.Gauge("farm_slo_error_budget_remaining",
		"Fraction of the lifetime error budget left per SLO (negative = overspent).", "slo")
	rem.With("availability").Set(1 - burn(t.bad, t.total, availabilityObjective))
	rem.With("latency").Set(1 - burn(t.slow, t.total, latencyObjective))
}
