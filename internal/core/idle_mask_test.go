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

// TestGateAuditReportsStaleEntry forges both kinds of poll-cache error and
// checks that the audit CheckInvariants arms names each, for all seven
// component kinds: a stale-late entry (sim.Never while the component's own
// NextWork is due, a tick about to be lost) and a stale-early one (due now
// while NextWork is in the future, a tick of a component with nothing to
// do). The first time a component of the kind is due, and the first time
// one is not, at a sample point, its entry is forged, audited and restored,
// so the run finishes normally. One CPU on station 0 reads lines homed on
// the other ring, so every kind carries traffic.
func TestGateAuditReportsStaleEntry(t *testing.T) {
	cfg := tinyConfig(1, 2, 2)
	cfg.CheckInvariants = true // the unforged caches pass the audit every cycle
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AllocAt(3, 8*cfg.Params.LineSize)
	m.Load([]proc.Program{func(c *proc.Ctx) {
		for i := 0; i < 8; i++ {
			c.Compute(3)
			c.Read(base + uint64(i*cfg.Params.LineSize))
		}
	}})
	type nexter interface{ NextWork(int64) int64 }
	type target struct {
		kind        string
		n           int // components of the kind
		entry       func(i int) *int64
		of          func(i int) nexter
		late, early error // audit of each forgery
		sawLate     bool
		sawEarly    bool
	}
	stations, rings := m.g.Stations(), m.g.Rings
	targets := []*target{
		{kind: "cpu", n: stations, entry: func(i int) *int64 { return &m.pollCPU[i] }, of: func(i int) nexter { return m.CPUs[i] }},
		{kind: "bus", n: stations, entry: func(i int) *int64 { return &m.pollBus[i] }, of: func(i int) nexter { return m.Buses[i] }},
		{kind: "mem", n: stations, entry: func(i int) *int64 { return &m.pollMem[i] }, of: func(i int) nexter { return m.Mems[i] }},
		{kind: "nc", n: stations, entry: func(i int) *int64 { return &m.pollNC[i] }, of: func(i int) nexter { return m.NCs[i] }},
		{kind: "ri", n: stations, entry: func(i int) *int64 { return &m.pollRI[i] }, of: func(i int) nexter { return m.RIs[i] }},
		{kind: "local ring", n: rings, entry: func(i int) *int64 { return &m.pollLocal[i] }, of: func(i int) nexter { return m.Locals[i] }},
		{kind: "central ring", n: 1, entry: func(int) *int64 { return &m.pollCentral }, of: func(int) nexter { return m.Central }},
	}
	forge := func(e *int64, at int64) error {
		saved := *e
		*e = at
		err := m.auditGates()
		*e = saved
		return err
	}
	m.SetSampler(1, func(m *Machine) {
		now := m.Now()
		for _, tg := range targets {
			for i := 0; i < tg.n; i++ {
				due := tg.of(i).NextWork(now) <= now
				if due && tg.sawLate || !due && tg.sawEarly {
					continue
				}
				if err := m.auditGates(); err != nil {
					t.Fatalf("audit fails before the forgery: %v", err)
				}
				if due {
					tg.sawLate, tg.late = true, forge(tg.entry(i), sim.Never)
				} else {
					tg.sawEarly, tg.early = true, forge(tg.entry(i), now)
				}
			}
		}
	})
	m.Run()
	for _, tg := range targets {
		for _, f := range []struct {
			name string
			saw  bool
			err  error
			want string
		}{
			{"stale-late", tg.sawLate, tg.late, "cached Never but NextWork"},
			{"stale-early", tg.sawEarly, tg.early, "but NextWork"},
		} {
			switch {
			case !f.saw:
				t.Errorf("%s: no %s was ever in the forgeable state at a sample point", f.name, tg.kind)
			case f.err == nil || !strings.Contains(f.err.Error(), f.want) || !strings.Contains(f.err.Error(), ": "+tg.kind+" "):
				t.Errorf("%s: audit of a forged %s entry = %v, want %q for a %s", f.name, tg.kind, f.err, f.want, tg.kind)
			}
		}
	}
}

// TestBusMarksOnlyWhatItDelivered pins the bus influence marks to the
// delivery set and to the receiver's own wake: in the cycle a response
// reaches CPU 0, its entry becomes its NextWork after the fill (the end of
// the fill's compute burst, not the next cycle), while the other live CPUs
// of its station (thinking far into the future), the memory module and the
// network cache keep the entries they had.
func TestBusMarksOnlyWhatItDelivered(t *testing.T) {
	cfg := tinyConfig(4, 1, 1)
	cfg.CheckInvariants = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	base := m.AllocAt(0, 8*cfg.Params.LineSize)
	think := func(c *proc.Ctx) { c.Compute(1_000_000) }
	m.Load([]proc.Program{func(c *proc.Ctx) {
		for i := 0; i < 8; i++ {
			c.Read(base + uint64(i*cfg.Params.LineSize))
		}
	}, think, think, think})
	checked := 0
	for m.Now() < 20_000 && checked < 4 {
		now := m.Now()
		b := m.Buses[0]
		// HitHorizon(0, now) == now iff a transfer addressed to CPU 0
		// completes this cycle.
		if now < 100 || b.HitHorizon(0, now) != now ||
			m.Mems[0].NextWork(now) <= now || m.NCs[0].NextWork(now) <= now {
			m.Step()
			continue
		}
		mem, nc := m.pollMem[0], m.pollNC[0]
		others := append([]int64(nil), m.pollCPU[1:4]...)
		m.Step()
		checked++
		want := m.CPUs[0].NextWork(now + 1)
		if want <= now+1 {
			t.Fatalf("cycle %d: cpu 0 is due at %d after the fill; a blind now+1 mark would pass unseen", now, want)
		}
		if m.pollCPU[0] != want {
			t.Errorf("cycle %d: cpu 0 received a response but pollCPU[0]=%d, want its NextWork %d", now, m.pollCPU[0], want)
		}
		for i, at := range others {
			if got := m.pollCPU[1+i]; got != at {
				t.Errorf("cycle %d: the bus delivered only to cpu 0 but pollCPU[%d] moved %d -> %d", now, 1+i, at, got)
			}
		}
		if m.pollMem[0] != mem || m.pollNC[0] != nc {
			t.Errorf("cycle %d: the bus delivered only to cpu 0 but pollMem %d -> %d, pollNC %d -> %d",
				now, mem, m.pollMem[0], nc, m.pollNC[0])
		}
	}
	if checked == 0 {
		t.Fatal("no cycle delivered a response to cpu 0 with memory and NC idle")
	}
}
