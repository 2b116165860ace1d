package mcheck

import (
	"bytes"
	"runtime"
	"testing"

	"numachine/internal/trace"
)

// sweep explores spec to a fixpoint, requires a complete, violation-free
// result and pins the size of the explored space. The counts are exact:
// the sweep is deterministic, and a change that moves a choice point off
// its issue cycle, or state out of the key, shows up as a smaller space
// long before it shows up as a missed bug (DESIGN.md "Verification").
func sweep(t *testing.T, spec Spec, states, paths, terminals int) {
	t.Helper()
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	t.Logf("sweep: %s", res)
	if len(res.Violations) != 0 {
		t.Fatalf("unmodified protocol produced violations:\n%s", res)
	}
	if !res.Complete {
		t.Fatalf("exploration did not reach a fixpoint within budgets: %s", res)
	}
	if res.States != states || res.Paths != paths || res.Terminals != terminals {
		t.Errorf("explored states/paths/terminals = %d/%d/%d, want %d/%d/%d",
			res.States, res.Paths, res.Terminals, states, paths, terminals)
	}
}

// TestExhaustiveDefaultSpec is the flagship verification run: the
// 2-station × 2-CPU × 1-line configuration explored to a fixpoint. The
// unmodified protocol must show zero violations over every reachable
// interleaving of issue delays.
func TestExhaustiveDefaultSpec(t *testing.T) {
	sweep(t, DefaultSpec(), 3078, 2742, 444)
}

// TestExhaustiveDefaultSpecWithFaults is the flagship with the fault
// injector's drop/dup decisions as choice points, one fault per path
// (cmd/mcheck -faults).
func TestExhaustiveDefaultSpecWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("the largest sweep: ~5 s")
	}
	spec := DefaultSpec()
	spec.FaultChoices = true
	spec.MaxFaults = 1
	sweep(t, spec, 16246, 15676, 782)
}

// TestExhaustiveRetryOrderings issues all four references simultaneously
// (a single-entry delay menu), so the only nondeterminism left is NAK
// retry timing: the sweep proves retries genuinely fire under contention
// and that every retry ordering stays coherent.
func TestExhaustiveRetryOrderings(t *testing.T) {
	spec := DefaultSpec()
	spec.Delays = []int64{0}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	t.Logf("retry-ordering sweep: %s", res)
	if len(res.Violations) != 0 {
		t.Fatalf("unmodified protocol produced violations:\n%s", res)
	}
	if !res.Complete {
		t.Fatalf("exploration did not reach a fixpoint within budgets: %s", res)
	}
	if res.MaxChoices == 0 {
		t.Fatalf("no NAK retries fired — the contention scenario lost its teeth: %s", res)
	}
}

// TestExhaustiveWithFaults lets the checker explore fault-injector
// drop/dup decisions (one fault per path) on the two-processor
// configuration: the recovery machinery must keep every faulted
// interleaving coherent and live.
func TestExhaustiveWithFaults(t *testing.T) {
	spec := DefaultSpec()
	spec.Procs = 1
	spec.RetryDeltas = []int64{0}
	spec.FaultChoices = true
	spec.MaxFaults = 1
	spec.MaxCycles = 12_000
	sweep(t, spec, 38, 34, 8)
}

// TestDeterministicReplay re-runs a recorded path and checks the replay
// reaches the same terminal outcome — the foundation of counterexamples.
func TestDeterministicReplay(t *testing.T) {
	c, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	r, vio := c.replay([]int{1, 0, 1, 0}, 0)
	if vio != nil {
		t.Fatalf("clean spec path violated: %v", vio)
	}
	want := r.choices()
	cycle := r.m.Now()
	// A fresh checker: replaying against c's populated visited set would
	// prune at the first revisited state instead of running to the end.
	c2, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	r2, vio2 := c2.replay(want, 0)
	if vio2 != nil {
		t.Fatalf("replay of clean path violated: %v", vio2)
	}
	got := r2.choices()
	if len(got) != len(want) {
		t.Fatalf("replay diverged: %d choices vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("replay diverged at choice %d: %d vs %d", i, got[i], want[i])
		}
	}
	if r2.m.Now() != cycle {
		t.Fatalf("replay ended at cycle %d, original at %d", r2.m.Now(), cycle)
	}
}

// TestReplayEmitsTrace checks counterexample replay produces a valid
// Chrome/Perfetto trace via internal/trace.
func TestReplayEmitsTrace(t *testing.T) {
	c, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	tr, vio := c.Replay([]int{1, 1}, 4096)
	if vio != nil {
		t.Fatalf("clean replay violated: %v", vio)
	}
	if tr == nil {
		t.Fatal("replay with tracing returned no tracer")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if n, err := trace.ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("replay trace is not valid Chrome JSON: %v", err)
	} else if n == 0 {
		t.Fatal("replay trace contains no events")
	}
}

func TestChoicesRoundTrip(t *testing.T) {
	seqs := [][]int{{}, {0}, {1, 0, 1}, {0, 1, 2, 3, 63}}
	for _, want := range seqs {
		b, err := EncodeChoices(want)
		if err != nil {
			t.Fatalf("encode %v: %v", want, err)
		}
		got, err := DecodeChoices(b)
		if err != nil {
			t.Fatalf("decode %v: %v", want, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round trip %v -> %v", want, got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round trip %v -> %v", want, got)
			}
		}
		s := FormatChoices(want)
		got2, err := ParseChoices(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if len(got2) != len(want) {
			t.Fatalf("hex round trip %v -> %v", want, got2)
		}
	}
	if _, err := EncodeChoices([]int{64}); err == nil {
		t.Fatal("EncodeChoices accepted an out-of-range value")
	}
	if _, err := DecodeChoices(nil); err == nil {
		t.Fatal("DecodeChoices accepted an empty encoding")
	}
	if _, err := DecodeChoices([]byte{0x7f, 0}); err == nil {
		t.Fatal("DecodeChoices accepted an unknown version")
	}
	if _, err := ParseChoices("zz"); err == nil {
		t.Fatal("ParseChoices accepted non-hex input")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Stations: 0, Procs: 1, Lines: 1, Delays: []int64{0}, RetryDeltas: []int64{0}, MaxStates: 1, MaxDepth: 1, MaxCycles: 1},
		{Stations: 2, Procs: 5, Lines: 1, Delays: []int64{0}, RetryDeltas: []int64{0}, MaxStates: 1, MaxDepth: 1, MaxCycles: 1},
		{Stations: 2, Procs: 1, Lines: 0, Delays: []int64{0}, RetryDeltas: []int64{0}, MaxStates: 1, MaxDepth: 1, MaxCycles: 1},
		{Stations: 2, Procs: 1, Lines: 1, Delays: nil, RetryDeltas: []int64{0}, MaxStates: 1, MaxDepth: 1, MaxCycles: 1},
		{Stations: 2, Procs: 1, Lines: 1, Delays: []int64{0}, RetryDeltas: []int64{0}, FaultChoices: true, MaxStates: 1, MaxDepth: 1, MaxCycles: 1},
	}
	for i, s := range bad {
		if _, err := New(s); err == nil {
			t.Errorf("spec %d validated unexpectedly", i)
		}
	}
	withOps := DefaultSpec()
	withOps.Ops = []string{"w0", "x0"}
	if _, err := New(withOps); err == nil {
		t.Error("bad op string validated unexpectedly")
	}
	short := DefaultSpec()
	short.Ops = []string{"w0"}
	if _, err := New(short); err == nil {
		t.Error("wrong op-string count validated unexpectedly")
	}
}

// TestNoGoroutineLeak: every replay abandons its machine — pruned paths
// mid-program — so a sweep must stop each path's workloads instead of
// leaving them parked for ever (414 pruned paths of the default sweep used
// to leave ~1300 goroutines, each pinning its whole machine). Mutated runs
// cover the violating exits.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	c, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	if res.Pruned == 0 {
		t.Fatalf("no path was pruned — the sweep abandons nothing: %s", res)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("default sweep: %d goroutines, %d before (%d paths pruned)", n, base, res.Pruned)
	}
	for _, mc := range MutationTable() {
		c, err := New(mc.Spec)
		if err != nil {
			t.Fatal(err)
		}
		c.SetMutation(mc.Mut)
		c.StopAtFirst = true
		if res := c.Run(); len(res.Violations) == 0 {
			t.Fatalf("mutation %s escaped: %s", mc.Name, res)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("mutated sweeps: %d goroutines, %d before", n, base)
	}
}
