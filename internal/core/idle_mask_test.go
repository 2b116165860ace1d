package core

import (
	"strings"
	"testing"

	"numachine/internal/monitor"
	"numachine/internal/proc"
	"numachine/internal/sim"
)

// TestIdleStationsNeverTick pins the per-station skip mask of the gated
// cycle on the paper-size machine: one program on CPU 0 whose data lives on
// its own station, on a second station of its ring and on a station of
// another ring leaves 13 of the 16 stations and two of the four local rings
// with nothing to do, and after the first gate pass none of their
// components may tick — or, for the interconnect, even be polled — again.
//
// The evidence is two existing sets of counters. Every tick of a station's
// CPU, bus, memory or NC — and of its RI, which marks the bus — leaves
// stationNext[s] at or below the next cycle, and the sampler looks at it
// after every step, so stationNext[s] == sim.Never at every sample means
// none of the five ticked. Independently, the bus and ring utilization
// counters advance their observation window on every real tick and are
// otherwise reconciled only by SyncStats, which this test does not call
// before comparing: an unchanged Utilization value is an unticked
// component.
//
// The interconnect entries go further: marks follow the data, so a ring
// interface no packet is addressed to (every idle station's: one CPU, no
// sharers) and a local ring whose IRI down FIFO stays empty (rings 2 and 3,
// while the central ring carries the ring-0/ring-1 traffic past them) are
// not merely unticked but never re-polled — their cache entries, and the
// ring groups' aggregates, read sim.Never at every sample.
func TestIdleStationsNeverTick(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Params.DeadlockCycles = 2_000_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Geometry()
	const lines = 96
	homes := []int{0, g.StationAt(0, 1), g.StationAt(1, 0)}
	var bases []uint64
	busy := map[int]bool{}
	for _, s := range homes {
		bases = append(bases, m.AllocAt(s, lines*cfg.Params.LineSize))
		busy[s] = true
	}
	m.Load([]proc.Program{func(c *proc.Ctx) {
		for i := 0; i < lines; i++ {
			for _, b := range bases {
				line := b + uint64(i*cfg.Params.LineSize)
				c.Write(line, c.Read(line)+1)
			}
			c.Compute(25)
		}
	}})

	const warmup = 64
	var idle []int
	for s := 0; s < g.Stations(); s++ {
		if !busy[s] {
			idle = append(idle, s)
		}
	}
	idleRings := []int{2, 3}
	var busUtil, ringUtil []monitor.Utilization
	samples := 0
	m.SetSampler(1, func(m *Machine) {
		if m.Now() < warmup {
			return
		}
		if busUtil == nil {
			for _, s := range idle {
				busUtil = append(busUtil, m.Buses[s].Util)
			}
			for _, r := range idleRings {
				ringUtil = append(ringUtil, m.Locals[r].Util)
			}
		}
		samples++
		for _, s := range idle {
			if m.stationNext[s] != sim.Never {
				t.Fatalf("cycle %d: idle station %d has stationNext=%d, a component of it ticked", m.Now(), s, m.stationNext[s])
			}
			if m.pollRI[s] != sim.Never {
				t.Fatalf("cycle %d: RI %d receives no packet but pollRI=%d, a tick of its ring re-gated it", m.Now(), s, m.pollRI[s])
			}
		}
		for _, r := range idleRings {
			if m.pollLocal[r] != sim.Never || m.ringNext[r] != sim.Never {
				t.Fatalf("cycle %d: local ring %d carries no traffic but pollLocal=%d ringNext=%d, a central tick re-gated it",
					m.Now(), r, m.pollLocal[r], m.ringNext[r])
			}
		}
	})
	cycles := m.Run()
	if samples < 1000 {
		t.Fatalf("only %d samples after warm-up in a %d-cycle run; the workload is too short to show anything", samples, cycles)
	}
	for i, s := range idle {
		if m.Buses[s].Util != busUtil[i] {
			t.Errorf("bus[%d] of an idle station ticked after warm-up: utilization window %+v -> %+v", s, busUtil[i], m.Buses[s].Util)
		}
	}
	for i, r := range idleRings {
		if m.Locals[r].Util != ringUtil[i] {
			t.Errorf("local ring %d carries no traffic but ticked after warm-up: utilization window %+v -> %+v", r, ringUtil[i], m.Locals[r].Util)
		}
	}
	// The counters do move for a component that works, or the comparison
	// above would prove nothing.
	if m.Buses[0].Util.Value() == 0 || m.Locals[1].Util.Value() == 0 {
		t.Errorf("busy bus / ring show no utilization: bus[0]=%+v local-1=%+v", m.Buses[0].Util, m.Locals[1].Util)
	}
	if m.FastForwarded.Value() == 0 {
		t.Errorf("no cycle fast-forwarded in a run that is mostly remote-miss latency and compute")
	}
}

// TestGateAuditReportsStaleEntry forges the one kind of poll-cache error
// that loses a tick — an entry later than the component's own NextWork —
// and checks that the audit CheckInvariants arms names it: the first time a
// ring interface holds a packet at a serial point, its entry is set to
// sim.Never, audited, and restored so the run finishes normally.
func TestGateAuditReportsStaleEntry(t *testing.T) {
	cfg := tinyConfig(1, 2, 1)
	cfg.CheckInvariants = true // the unforged caches pass the audit every cycle
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AllocAt(1, 8*cfg.Params.LineSize)
	m.Load([]proc.Program{func(c *proc.Ctx) {
		for i := 0; i < 8; i++ {
			c.Read(base + uint64(i*cfg.Params.LineSize))
		}
	}})
	var forged error
	done := false
	m.SetSampler(1, func(m *Machine) {
		if done {
			return
		}
		for s, ri := range m.RIs {
			if ri.InFIFODepth() == 0 {
				continue
			}
			done = true
			if err := m.auditGates(); err != nil {
				t.Fatalf("audit fails before the forgery: %v", err)
			}
			saved := m.pollRI[s]
			m.pollRI[s] = sim.Never
			forged = m.auditGates()
			m.pollRI[s] = saved
			return
		}
	})
	m.Run()
	if !done {
		t.Fatal("no ring interface ever held a packet at a sample point")
	}
	if forged == nil || !strings.Contains(forged.Error(), "cached Never but NextWork") ||
		!strings.Contains(forged.Error(), "ri ") {
		t.Fatalf("audit of a forged pollRI entry = %v, want a stale ri entry reported", forged)
	}
}
