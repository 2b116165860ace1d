package core

import (
	"strings"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// runWatchdog drives a machine into the no-progress window — one reference,
// then a compute burst many times longer than DeadlockCycles — and returns
// the watchdog panic message ("" if it never tripped).
func runWatchdog(t *testing.T, loop string) (panicMsg string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}
	cfg.Params.L2Lines = 64
	cfg.Params.DeadlockCycles = 2000
	m, err := newLoop(cfg, loop)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.AllocLines(1)
	m.Load([]proc.Program{func(c *proc.Ctx) {
		c.Read(addr)
		c.Compute(50 * cfg.Params.DeadlockCycles)
		c.Read(addr)
	}})
	defer func() {
		panicMsg, _ = recover().(string)
	}()
	m.Run()
	return ""
}

// TestWatchdogTripsIdentically is the regression test for the PR 1 "known
// divergence": quiescence fast-forwards used to jump past the no-progress
// window, so the scheduled loop sampled the watchdog at different cycles
// than the reference order. Jumps now clamp to the watchdog deadline, so
// both executors must panic at the reference order's cycle with its
// message.
func TestWatchdogTripsIdentically(t *testing.T) {
	ref := runWatchdog(t, "naive")
	if ref == "" {
		t.Fatal("naive loop did not trip the watchdog")
	}
	if !strings.Contains(ref, "no progress for 2000 cycles") {
		t.Fatalf("unexpected watchdog message: %q", ref)
	}
	for _, loop := range equivLoops[1:] {
		got := runWatchdog(t, loop)
		if got == "" {
			t.Errorf("%s loop did not trip the watchdog", loop)
			continue
		}
		if got != ref {
			t.Errorf("%s loop watchdog diverges from naive:\n%s\n--- naive ---\n%s", loop, got, ref)
		}
	}
}
