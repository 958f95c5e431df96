package mc

import (
	"testing"

	"asdsim/internal/dram"
	"asdsim/internal/mem"
)

func freshDRAM() *dram.DRAM { return dram.New(dram.DefaultConfig()) }

// cmds builds arbiter candidates with the (bank, row) decode the
// controller would have cached at admission.
func cmds(d *dram.DRAM, lines ...mem.Line) []*cmdState {
	out := make([]*cmdState, len(lines))
	for i, l := range lines {
		out[i] = &cmdState{cmd: mem.Command{Kind: mem.Read, Line: l, ID: uint64(i + 1)}, dec: d.Decode(l)}
	}
	return out
}

// cmd1 builds one decoded cmdState for arbiter-history tests.
func cmd1(d *dram.DRAM, l mem.Line, isWrite bool) *cmdState {
	return &cmdState{cmd: mem.Command{Line: l}, dec: d.Decode(l), isWrite: isWrite}
}

func TestNewArbiterKinds(t *testing.T) {
	if _, ok := newArbiter(SchedInOrder).(inOrderArbiter); !ok {
		t.Error("in-order kind")
	}
	if _, ok := newArbiter(SchedMemoryless).(memorylessArbiter); !ok {
		t.Error("memoryless kind")
	}
	if _, ok := newArbiter(SchedAHB).(*ahbArbiter); !ok {
		t.Error("ahb kind")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	newArbiter(SchedulerKind(9))
}

func TestArbitersEmptyQueue(t *testing.T) {
	d := freshDRAM()
	for _, k := range []SchedulerKind{SchedInOrder, SchedMemoryless, SchedAHB} {
		if got := newArbiter(k).pick(nil, d, 0, 0, 8); got != -1 {
			t.Errorf("%v: pick(empty) = %d", k, got)
		}
	}
}

func TestInOrderPicksOldest(t *testing.T) {
	d := freshDRAM()
	q := cmds(d, 100, 5, 30)
	q[2].cmd.ID = 0 // oldest
	if got := (inOrderArbiter{}).pick(q, d, 0, 0, 8); got != 2 {
		t.Errorf("pick = %d, want 2", got)
	}
}

func TestMemorylessSkipsBusyBank(t *testing.T) {
	d := freshDRAM()
	// Occupy bank of line 0.
	d.IssueD(0, d.Decode(0), false, false, 0)
	q := cmds(d, 1, 16) // line 1 shares bank 0 (busy); line 16 is bank 1 (free)
	got := (memorylessArbiter{}).pick(q, d, 1, 0, 8)
	if got != 1 {
		t.Errorf("pick = %d, want the ready-bank command", got)
	}
}

func TestMemorylessFallsBackToOldest(t *testing.T) {
	d := freshDRAM()
	d.IssueD(0, d.Decode(0), false, false, 0)
	q := cmds(d, 1, 2) // both bank 0, busy
	if got := (memorylessArbiter{}).pick(q, d, 1, 0, 8); got != 0 {
		t.Errorf("pick = %d, want oldest", got)
	}
}

func TestAHBPrefersReadyAndRowHit(t *testing.T) {
	d := freshDRAM()
	done := d.IssueD(0, d.Decode(0), false, false, 0) // opens bank 0 row 0
	a := newAHB()
	// line 1: bank 0, row open (row hit + ready after completion);
	// line 512: bank 0, different row (conflict); choose at time `done`.
	q := cmds(d, 512, 1)
	if got := a.pick(q, d, done, 0, 8); got != 1 {
		t.Errorf("pick = %d, want the row-hit command", got)
	}
}

func TestAHBAvoidsHistoryBanks(t *testing.T) {
	d := freshDRAM()
	a := newAHB()
	// Record history on bank 0.
	a.issued(cmd1(d, 0, false), d)
	// Both candidates cold and ready; line 1 is bank 0 (clash), line 16
	// is bank 1 (no clash). Despite line 1 being older, the bank-spread
	// bonus should pick line 16.
	q := cmds(d, 1, 16)
	if got := a.pick(q, d, 0, 0, 8); got != 1 {
		t.Errorf("pick = %d, want the non-clashing bank", got)
	}
}

func TestAHBWriteDrainUnderPressure(t *testing.T) {
	d := freshDRAM()
	a := newAHB()
	q := cmds(d, 16, 32)
	q[1].isWrite = true
	// Write queue nearly full: the write should win despite being newer.
	if got := a.pick(q, d, 0, 7, 8); got != 1 {
		t.Errorf("pick = %d, want the write under pressure", got)
	}
	// No pressure: the read wins.
	if got := a.pick(q, d, 0, 0, 8); got != 0 {
		t.Errorf("pick = %d, want the read without pressure", got)
	}
}

func TestAHBMixAdaptation(t *testing.T) {
	d := freshDRAM()
	a := newAHB()
	// Feed a write-heavy history (>16 commands).
	for i := 0; i < 24; i++ {
		a.issued(cmd1(d, mem.Line(i*37), true), d)
	}
	q := cmds(d, 1000, 2000)
	q[0].isWrite = true
	q[1].isWrite = false
	if got := a.pick(q, d, 0, 0, 8); got != 0 {
		t.Errorf("pick = %d, want a write for a write-heavy mix", got)
	}
}

func TestAHBHistoryForgetting(t *testing.T) {
	d := freshDRAM()
	a := newAHB()
	for i := 0; i < 5000; i++ {
		a.issued(cmd1(d, mem.Line(i), false), d)
	}
	if a.reads+a.writes >= 4096 {
		t.Errorf("mix counters did not decay: %d", a.reads+a.writes)
	}
}
