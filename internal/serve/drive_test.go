package serve

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/proc"
)

// driveTrace runs one scenario recording the cycle of every dispatcher
// drive.
func driveTrace(t *testing.T, fastHits bool) []int64 {
	t.Helper()
	sp, err := ParseSpec(serveSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(testConfig(fastHits))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(m, sp, 42)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]proc.Program, sp.Procs)
	for w := range progs {
		progs[w] = ctl.worker(w)
	}
	m.Load(progs)
	var drives []int64
	m.SetDriver(sp.Quantum, func(mm *core.Machine) {
		drives = append(drives, mm.Now())
		ctl.drive(mm)
	})
	m.Run()
	return drives
}

// TestDriveCyclesLoopInvariant pins the SetDriver contract directly: the
// dispatcher fires at exactly the cycles a cycle-by-cycle walk would, one
// every Quantum cycles from the first, with the front-end hit fast path
// on or off. This is sharper than comparing end-of-run reports — it
// catches a quiescence fast-forward jumping over a due drive (the clamp's
// >= boundary: a jump computed after m.now has already advanced onto a
// due drive must be suppressed, not taken) even when the perturbed schedule
// happens to produce similar results. The pooled executor's drives are
// pinned by internal/core's serving equivalence suites.
func TestDriveCyclesLoopInvariant(t *testing.T) {
	sp, _ := ParseSpec(serveSpecs[0])
	var traces [][]int64
	for _, fast := range []bool{true, false} {
		got := driveTrace(t, fast)
		if len(got) < 10 {
			t.Fatalf("fast=%v: scenario produced only %d drives; test is vacuous", fast, len(got))
		}
		for i := range got {
			if want := got[0] + int64(i)*sp.Quantum; got[i] != want {
				t.Fatalf("fast=%v: drive %d at cycle %d, want %d (every %d cycles from %d)",
					fast, i, got[i], want, sp.Quantum, got[0])
			}
		}
		traces = append(traces, got)
	}
	if on, off := traces[0], traces[1]; len(on) != len(off) || on[0] != off[0] {
		t.Errorf("drives: fast hits on %d from cycle %d, off %d from cycle %d", len(on), on[0], len(off), off[0])
	}
}
