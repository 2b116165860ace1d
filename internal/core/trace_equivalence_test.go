package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// runTraced executes one scenario under the named loop with tracing
// enabled and returns the machine, its cycle count and the canonical
// text serialization of the trace.
func runTraced(t *testing.T, sc equivScenario, loop string) (*Machine, int64, []byte) {
	t.Helper()
	cfg := sc.cfg()
	cfg.CheckInvariants = true // coherence re-checked at every quiescence
	m, err := newLoop(cfg, loop)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	m.EnableTrace(1 << 14)
	m.Load(sc.load(m))
	cycles := m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s (%s, traced): coherence: %v", sc.name, loop, err)
	}
	var buf bytes.Buffer
	if err := m.Tracer().WriteText(&buf); err != nil {
		t.Fatalf("%s (%s): WriteText: %v", sc.name, loop, err)
	}
	return m, cycles, buf.Bytes()
}

// TestTraceEquivalence is the tracing analogue of the scheduler
// equivalence harness: for every scenario the merged trace must be
// byte-identical across the test-only reference order and both executors.
// This holds only if events are emitted exclusively on real work
// (never from idle ticks the scheduler skips) and the merge key is
// loop-invariant — the two properties the trace package documents.
func TestTraceEquivalence(t *testing.T) {
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			_, cyclesN, traceN := runTraced(t, sc, "naive")
			if len(traceN) == 0 {
				t.Fatal("naive run produced an empty trace")
			}
			for _, loop := range equivLoops[1:] {
				_, cycles, tr := runTraced(t, sc, loop)
				if cycles != cyclesN {
					t.Errorf("cycles: naive=%d %s=%d", cyclesN, loop, cycles)
				}
				if !bytes.Equal(traceN, tr) {
					t.Errorf("trace diverges from naive under %s: %s",
						loop, firstTraceDiff(traceN, tr))
				}
			}
		})
	}
}

// firstTraceDiff renders the first differing line of two text traces.
func firstTraceDiff(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(la), len(lb))
}

// TestTraceNonIntrusive verifies that enabling tracing — and sampling
// mid-run through the telemetry hook — leaves the simulation untouched:
// identical cycle counts and an identical full Results snapshot versus
// an untraced run.
func TestTraceNonIntrusive(t *testing.T) {
	sc := equivScenarios()[1] // a hierarchical mixed-traffic scenario
	plain, plainCycles := runEquiv(t, sc, "scheduled")

	cfg := sc.cfg()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTrace(1 << 14)
	samples := 0
	m.SetSampler(500, func(m *Machine) {
		samples++
		_ = m.Results() // force the idempotent mid-run reconciliation
		_ = m.PhaseTransactions()
	})
	m.Load(sc.load(m))
	cycles := m.Run()

	if cycles != plainCycles {
		t.Errorf("cycles: untraced=%d traced+sampled=%d", plainCycles, cycles)
	}
	if a, b := plain.Results(), m.Results(); !reflect.DeepEqual(a, b) {
		t.Errorf("Results perturbed by tracing/sampling:\nuntraced: %+v\ntraced:   %+v", a, b)
	}
	if samples == 0 {
		t.Error("sampler never fired")
	}
}
