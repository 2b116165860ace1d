package core

import (
	"bytes"
	"testing"
)

// runFastEquiv executes one scenario under the named loop with the
// front-end hit fast path forced on or off (and optionally a fault
// schedule) and returns the machine, its cycle count and the canonical
// text trace.
func runFastEquiv(t *testing.T, sc equivScenario, loop string, fast bool, fs *faultSchedule) (*Machine, int64, []byte) {
	t.Helper()
	cfg := sc.cfg()
	cfg.CheckInvariants = true // coherence re-checked at every quiescence
	cfg.FastHits = fast
	if fs != nil {
		cfg.FaultSpec = fs.spec
		cfg.FaultSeed = fs.seed
		cfg.Params.RetryBackoff = true
		cfg.Params.RetryJitterSeed = fs.seed
	}
	m, err := newLoop(cfg, loop)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	m.EnableTrace(1 << 14)
	m.Load(sc.load(m))
	cycles := m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s (%s, fast=%v): coherence: %v", sc.name, loop, fast, err)
	}
	var buf bytes.Buffer
	if err := m.Tracer().WriteText(&buf); err != nil {
		t.Fatalf("%s (%s, fast=%v): WriteText: %v", sc.name, loop, fast, err)
	}
	return m, cycles, buf.Bytes()
}

// TestFastHitsEquivalence is the acceptance harness for the front-end
// hit fast path: with Config.FastHits on, every scenario must produce a
// bit-identical Results snapshot and a byte-identical text trace to the
// FastHits-off run — under all three cycle loops. The off-baseline runs
// once in the test-only reference order; cross-loop identity of the baseline itself
// is covered by the scheduler/trace equivalence harnesses, so comparing
// each fast(loop) run against off(naive) spans the full on/off × loop
// matrix.
func TestFastHitsEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			mOff, cyclesOff, traceOff := runFastEquiv(t, sc, "naive", false, nil)
			if len(traceOff) == 0 {
				t.Fatal("baseline run produced an empty trace")
			}
			for _, loop := range equivLoops {
				m, cycles, tr := runFastEquiv(t, sc, loop, true, nil)
				compareRuns(t, "off", "fast/"+loop, mOff, m, cyclesOff, cycles)
				if !bytes.Equal(traceOff, tr) {
					t.Errorf("trace diverges from FastHits-off baseline under %s: %s",
						loop, firstTraceDiff(traceOff, tr))
				}
			}
		})
	}
}

// TestFastHitsFaultedEquivalence repeats the on/off comparison under
// fault injection: dropped and duplicated packets, module freezes and
// ring degradation reshuffle when invalidations and interventions land,
// which is exactly the traffic the epoch counter and delivery horizon
// must fence. The faults are deterministic in simulated time, so the
// fast path must not shift a single one of them.
func TestFastHitsFaultedEquivalence(t *testing.T) {
	schedules := faultSchedules()
	for _, fs := range []faultSchedule{schedules[2], schedules[5]} {
		fs := fs
		for _, sc := range faultScenarios() {
			sc := sc
			t.Run(fs.name+"/"+sc.name, func(t *testing.T) {
				mOff, cyclesOff, traceOff := runFastEquiv(t, sc, "naive", false, &fs)
				if len(traceOff) == 0 {
					t.Fatal("baseline faulted run produced an empty trace")
				}
				for _, loop := range equivLoops {
					m, cycles, tr := runFastEquiv(t, sc, loop, true, &fs)
					compareRuns(t, "off", "fast/"+loop, mOff, m, cyclesOff, cycles)
					if !bytes.Equal(traceOff, tr) {
						t.Errorf("faulted trace diverges from FastHits-off baseline under %s: %s",
							loop, firstTraceDiff(traceOff, tr))
					}
				}
			})
		}
	}
}
