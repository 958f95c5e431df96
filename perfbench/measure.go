package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

const (
	// Set-up takes microseconds to milliseconds and its cost drifts over
	// seconds on a shared host, so it is sampled in two bursts of
	// setupBurst set-ups spaced setupGap apart, one before and one after
	// the measured pass, after setupWarmups discarded ones; the median is
	// reported.
	setupBurst   = 50
	setupGap     = 5 * time.Millisecond
	setupWarmups = 5
)

// setupSampler times a workload's set-up.
type setupSampler struct {
	fn     func() (time.Duration, error)
	warmed bool
	times  []float64 // seconds
}

// burst takes setupBurst samples, after the warm-up ones on first use.
// It collects the garbage of what ran before, so a burst after the
// measured pass does not pay for the pass.
func (s *setupSampler) burst() error {
	runtime.GC()
	n := setupBurst
	if !s.warmed {
		n += setupWarmups
		s.warmed = true
	}
	for i := 0; i < n; i++ {
		d, err := s.fn()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i >= n-setupBurst {
			s.times = append(s.times, d.Seconds())
		}
		time.Sleep(setupGap)
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99, 98, 95, 90, 80, 75, 70, 60, 50}

// tail returns the value at the highest ladder percentile that has at
// least ten samples beyond it (nearest rank), with that percentile.
// With fewer than eleven samples it returns the maximum at p100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return s[n-1], 100
}

// frac is num/den, 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeSample reads the Go runtime's cumulative allocation, GC-cycle
// and CPU counters.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// heapPeak samples the live heap every few milliseconds until stopped
// and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// window measures one pass: wall time, allocation, GC work and the
// peak heap between begin and end.
type window struct {
	start time.Time
	rt    runtimeSample
	heap  *heapPeak
}

// beginWindow collects the garbage of everything before the pass, so
// the pass's peak heap is its own.
func beginWindow() *window {
	runtime.GC()
	return &window{start: time.Now(), rt: readRuntime(), heap: startHeapPeak()}
}

// windowStats is what a finished window measured.
type windowStats struct {
	wall       time.Duration
	allocBytes float64
	gcCycles   float64
	gcCPUFrac  float64
	peakHeapMB float64
}

func (w *window) end() windowStats {
	wall := time.Since(w.start)
	peak := w.heap.Stop()
	rt := readRuntime()
	return windowStats{
		wall:       wall,
		allocBytes: float64(rt.allocBytes - w.rt.allocBytes),
		gcCycles:   float64(rt.gcCycles - w.rt.gcCycles),
		gcCPUFrac:  frac(rt.gcCPU-w.rt.gcCPU, rt.totalCPU-w.rt.totalCPU),
		peakHeapMB: peak,
	}
}

// timedSpan is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one job or cell share a trace ID.
type timedSpan struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them out at the end.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []timedSpan
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span; nil-safe, so untraced runs pay one branch.
func (l *spanLog) add(trace, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, timedSpan{Trace: trace, Name: name, Parent: parent,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
