package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"asdsim"
	"asdsim/internal/farm"
	"asdsim/internal/sim"
	"asdsim/internal/workload"
)

// paperGainsJSON is the paper's suite-average gains (Figs. 5-7) with
// the repository's seed-1 reproduction of each; the file cites both.
//
//go:embed paper_gains.json
var paperGainsJSON []byte

type gainRow struct {
	Suite    string  `json:"suite"`
	Compare  string  `json:"compare"`
	Paper    float64 `json:"paper_pct"`
	Measured float64 `json:"measured_seed1_pct"`
}

type gainTable struct {
	Source         string    `json:"source"`
	MeasuredSource string    `json:"measured_source"`
	Rows           []gainRow `json:"rows"`
}

func loadPaperGains() (gainTable, error) {
	var t gainTable
	if err := json.Unmarshal(paperGainsJSON, &t); err != nil {
		return t, fmt.Errorf("paper_gains.json: %w", err)
	}
	if len(t.Rows) != 9 {
		return t, fmt.Errorf("paper_gains.json: %d rows, want 9", len(t.Rows))
	}
	return t, nil
}

// comparisons maps a gain name to its (baseline, improved) modes.
var comparisons = map[string][2]sim.Mode{
	"PMS/NP": {sim.NP, sim.PMS},
	"MS/NP":  {sim.NP, sim.MS},
	"PMS/PS": {sim.PS, sim.PMS},
}

// cellResults indexes simulated results by benchmark and mode.
type cellResults map[string]map[sim.Mode]*sim.Result

func (c cellResults) add(bench string, mode sim.Mode, res *sim.Result) {
	if c[bench] == nil {
		c[bench] = map[sim.Mode]*sim.Result{}
	}
	c[bench][mode] = res
}

// suiteGain averages the comparison's per-benchmark gain over the
// suite's benchmarks that have both modes; ok is false when none has.
func (c cellResults) suiteGain(suite, compare string) (avg float64, n int, ok bool) {
	s, err := farm.ParseSuite(suite)
	modes, known := comparisons[compare]
	if err != nil || !known {
		return 0, 0, false
	}
	var sum float64
	for _, b := range workload.SuiteNames(s) {
		base, res := c[b][modes[0]], c[b][modes[1]]
		if base == nil || res == nil {
			continue
		}
		sum += asdsim.Gain(*base, *res)
		n++
	}
	if n == 0 {
		return 0, 0, false
	}
	return sum / float64(n), n, true
}

// gainError is the mean absolute error, in percentage points, of the
// suite-average gains the results support against the paper's values.
// It also returns how many of the nine table rows were covered.
func gainError(t gainTable, c cellResults) (pp float64, rows int) {
	var sum float64
	for _, r := range t.Rows {
		avg, _, ok := c.suiteGain(r.Suite, r.Compare)
		if !ok {
			continue
		}
		sum += math.Abs(avg - r.Paper)
		rows++
	}
	return frac(sum, float64(rows)), rows
}

// checkMeasuredColumn is the seed-1 self-check: every suite average,
// printed to one decimal as EXPERIMENTS.md prints it, equals the
// table's "Measured" column.
func (b *bench) checkMeasuredColumn(t gainTable, c cellResults) {
	for _, r := range t.Rows {
		avg, _, ok := c.suiteGain(r.Suite, r.Compare)
		got, want := fmt.Sprintf("%.1f", avg), fmt.Sprintf("%.1f", r.Measured)
		b.op(ok && got == want, "seed-1 %s %s average %s%%, EXPERIMENTS.md measured %s%%", r.Suite, r.Compare, got, want)
	}
	b.note("self-check: seed-1 sweep suite averages vs EXPERIMENTS.md Measured column (%d rows checked)", len(t.Rows))
}
