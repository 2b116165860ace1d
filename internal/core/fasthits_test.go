package core

import (
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// TestHitHorizonRegimes pins which of the two horizon bounds a CPU gets.
// CPU 0 computes throughout; CPU 2, on the other station, takes one miss
// and finishes. While that miss is in flight CPU 0's horizon is exactly
// its bus floor; once the machine is quiet again and CPU 0 is the only CPU
// that can still act, it is the burst cap, now + DeadlockCycles/2. The
// pooled executor reads the same bounds outside a pool round; inside one
// (parPhase) the machine-quiet bound is off and both states read the bus
// floor.
func TestHitHorizonRegimes(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 1}
		cfg.Params.DeadlockCycles = 2_000_000
		cfg.ParallelStations = pooled
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		line := m.AllocLines(1)
		m.Load([]proc.Program{
			func(c *proc.Ctx) { c.Compute(1 << 20); c.Read(line) },
			func(c *proc.Ctx) {},
			func(c *proc.Ctx) { c.Read(line) },
		})
		cpu := m.CPUs[0]
		busFloor := func() int64 { return m.Buses[cpu.Station].HitHorizon(cpu.Local, m.now) }

		for m.deliveryQuiet() {
			m.Step()
		}
		if got := cpu.Horizon(m.now); got != busFloor() {
			t.Errorf("pooled=%v, miss in flight at cycle %d: horizon %d, want the bus floor %d", pooled, m.now, got, busFloor())
		}
		if pooled {
			m.parPhase = true
			if got := cpu.Horizon(m.now); got != busFloor() {
				t.Errorf("miss in flight at cycle %d, pool round: horizon %d, want the bus floor %d", m.now, got, busFloor())
			}
			m.parPhase = false
		}

		for !m.CPUs[2].Done() || !m.deliveryQuiet() {
			m.Step()
		}
		want := m.now + cfg.Params.DeadlockCycles/2
		if got := cpu.Horizon(m.now); got != want {
			t.Errorf("pooled=%v, quiet machine at cycle %d: horizon %d, want %d (bus floor %d)", pooled, m.now, got, want, busFloor())
		}
		if pooled {
			m.parPhase = true
			if got := cpu.Horizon(m.now); got != busFloor() {
				t.Errorf("quiet machine at cycle %d, pool round: horizon %d, want the bus floor %d", m.now, got, busFloor())
			}
			m.parPhase = false
		}
	}
}
