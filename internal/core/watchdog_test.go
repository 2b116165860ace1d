package core

import (
	"strings"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// runWatchdog drives a machine into the no-progress window — a reference,
// a compute gap, a second reference, then a compute burst many times longer
// than DeadlockCycles — and returns the watchdog panic message ("" if it
// never tripped).
func runWatchdog(t *testing.T, loop string, gap int64) (panicMsg string) {
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
		c.Compute(gap)
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

// TestWatchdogTripsIdentically requires both executors to panic at the
// reference order's cycle with its message. A quiescence jump may land on
// the watchdog's next check but never pass it; the sweep moves the second
// reference across the first deadline, so on some gap the cycle before the
// deadline ticks nothing and the gated step itself lands on the deadline,
// where a jump that ignores a check due exactly now would skip it and see
// progress at its first check after the burst.
func TestWatchdogTripsIdentically(t *testing.T) {
	for gap := int64(1500); gap < 2100; gap++ {
		ref := runWatchdog(t, "naive", gap)
		if !strings.Contains(ref, "no progress for 2000 cycles") {
			t.Fatalf("gap %d: naive loop did not trip the watchdog: %q", gap, ref)
		}
		for _, loop := range equivLoops[1:] {
			if got := runWatchdog(t, loop, gap); got != ref {
				t.Errorf("gap %d: %s loop watchdog diverges from naive:\n%s\n--- naive ---\n%s", gap, loop, got, ref)
			}
		}
	}
}
