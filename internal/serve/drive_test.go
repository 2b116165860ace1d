package serve

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/proc"
)

// driveTrace runs one scenario recording the cycle of every dispatcher
// drive.
func driveTrace(t *testing.T, loop string) []int64 {
	t.Helper()
	sp, err := ParseSpec(serveSpecs[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(testConfig(loop, true))
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
// every Quantum cycles from the first, under both executors. This is
// sharper than comparing end-of-run reports — it catches a quiescence
// fast-forward jumping over a due drive (the clamp's >= boundary: a jump
// computed after m.now has already advanced onto driveAt must be
// suppressed, not taken) even when the perturbed schedule happens to
// produce similar results.
func TestDriveCyclesLoopInvariant(t *testing.T) {
	sp, _ := ParseSpec(serveSpecs[0])
	var traces [][]int64
	for _, loop := range []string{"scheduled", "parallel"} {
		got := driveTrace(t, loop)
		if len(got) < 10 {
			t.Fatalf("%s: scenario produced only %d drives; test is vacuous", loop, len(got))
		}
		for i := range got {
			if want := got[0] + int64(i)*sp.Quantum; got[i] != want {
				t.Fatalf("%s: drive %d at cycle %d, want %d (every %d cycles from %d)",
					loop, i, got[i], want, sp.Quantum, got[0])
			}
		}
		traces = append(traces, got)
	}
	if s, p := traces[0], traces[1]; len(s) != len(p) || s[0] != p[0] {
		t.Errorf("drives: scheduled %d from cycle %d, parallel %d from cycle %d", len(s), s[0], len(p), p[0])
	}
}
