package core

import (
	"testing"

	"numachine/internal/memory"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		cfg := tinyConfig(4, 2, 2)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := m.AllocLines(64)
		prog := func(c *proc.Ctx) {
			rng := sim.NewRNG(uint64(c.ID) + 1)
			for i := 0; i < 200; i++ {
				line := base + uint64(rng.Intn(64))*64
				if rng.Intn(3) == 0 {
					c.Write(line, uint64(i))
				} else {
					c.Read(line)
				}
			}
			c.Barrier()
		}
		progs := make([]proc.Program, 16)
		for i := range progs {
			progs[i] = prog
		}
		m.Load(progs)
		return m.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs took %d and %d cycles", a, b)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	cfg := tinyConfig(2, 2, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := uint64(cfg.Params.PageSize)
	base := m.Alloc(int(ps) * 8)
	for pg := uint64(0); pg < 8; pg++ {
		want := int((base/ps + pg) % uint64(m.Geometry().Stations()))
		if got := m.HomeOf(base + pg*ps); got != want {
			t.Errorf("page %d homed on %d, want %d", pg, got, want)
		}
	}
}

func TestAllocAtPins(t *testing.T) {
	cfg := tinyConfig(2, 2, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.AllocAt(2, 3*cfg.Params.PageSize)
	for off := 0; off < 3*cfg.Params.PageSize; off += cfg.Params.PageSize {
		if got := m.HomeOf(addr + uint64(off)); got != 2 {
			t.Errorf("pinned page at +%d homed on %d, want 2", off, got)
		}
	}
}

func TestKillSpecialFunction(t *testing.T) {
	cfg := tinyConfig(2, 2, 2)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.AllocAt(1, cfg.Params.PageSize) // homed remotely from proc 0
	prog0 := func(c *proc.Ctx) {
		c.Write(addr, 9) // proc 0 owns the line dirty via its NC
		c.Barrier()
		c.Kill(addr) // purge all copies; blocks until the interrupt
		c.Barrier()
	}
	idle := func(c *proc.Ctx) { c.Barrier(); c.Barrier() }
	m.Load([]proc.Program{prog0, idle, idle, idle})
	m.Run()
	line := m.LineOf(addr)
	st, _, _, procs, data := m.Mems[1].Peek(line)
	if st != memory.LV || procs != 0 {
		t.Errorf("after kill: state %v procs %04b, want LV with no copies", st, procs)
	}
	if data != 9 {
		t.Errorf("kill lost the dirty data: %d, want 9", data)
	}
	if m.CPUs[0].L2().Probe(line) != nil {
		t.Error("killed line survives in the requester's L2")
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestPhaseIdentifiers(t *testing.T) {
	cfg := tinyConfig(2, 1, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := func(c *proc.Ctx) {
		c.SetPhase(3)
		c.Compute(10)
	}
	m.Load([]proc.Program{prog})
	m.Run()
	if got := m.CPUs[0].Phase(); got != 3 {
		t.Errorf("phase register = %d, want 3", got)
	}
}

func TestSCLockingAblationRuns(t *testing.T) {
	for _, sc := range []bool{true, false} {
		cfg := tinyConfig(2, 2, 2)
		cfg.Params.SCLocking = sc
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := m.AllocLines(1)
		prog := func(c *proc.Ctx) {
			for i := 0; i < 20; i++ {
				c.FetchAdd(line, 1)
			}
		}
		progs := make([]proc.Program, 8)
		for i := range progs {
			progs[i] = prog
		}
		m.Load(progs)
		m.Run()
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("SCLocking=%v: %v", sc, err)
		}
		// The counter must be exact either way: relaxing the consumer-side
		// wait must not break atomicity.
		_, _, _, _, data := m.Mems[m.HomeOf(line)].Peek(line)
		got := data
		if l := findDirty(m, line); l != 0 {
			got = l
		}
		if got != 160 {
			t.Errorf("SCLocking=%v: counter %d, want 160", sc, got)
		}
	}
}

// findDirty returns the value of the dirty copy of line, if any.
func findDirty(m *Machine, line uint64) uint64 {
	for _, c := range m.CPUs {
		if l := c.L2().Probe(line); l != nil && l.State == 2 /* Dirty */ {
			return l.Data
		}
	}
	for _, nc := range m.NCs {
		if st, _, _, data, ok := nc.Peek(line); ok && (st == memory.LV || st == memory.LI) {
			if st == memory.LV {
				return data
			}
		}
	}
	return 0
}

func TestOptimisticUpgradesOffStillCoherent(t *testing.T) {
	cfg := tinyConfig(2, 2, 2)
	cfg.Params.OptimisticUpgrades = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AllocLines(16)
	prog := func(c *proc.Ctx) {
		for i := 0; i < 16; i++ {
			c.Read(base + uint64(i)*64)
		}
		c.Barrier()
		for i := 0; i < 16; i++ {
			if i%c.NProcs == c.ID {
				c.Write(base+uint64(i)*64, uint64(c.ID))
			}
		}
	}
	progs := make([]proc.Program, 8)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryVariants(t *testing.T) {
	for _, g := range []topo.Geometry{
		{ProcsPerStation: 1, StationsPerRing: 1, Rings: 1},
		{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1},
		{ProcsPerStation: 2, StationsPerRing: 1, Rings: 2},
		{ProcsPerStation: 3, StationsPerRing: 3, Rings: 3},
	} {
		cfg := tinyConfig(g.ProcsPerStation, g.StationsPerRing, g.Rings)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := m.AllocLines(16)
		prog := func(c *proc.Ctx) {
			for i := 0; i < 16; i++ {
				c.Write(base+uint64(i)*64, uint64(c.ID*100+i))
				c.Read(base + uint64((i+3)%16)*64)
			}
			c.Barrier()
		}
		progs := make([]proc.Program, g.Procs())
		for i := range progs {
			progs[i] = prog
		}
		m.Load(progs)
		m.Run()
		if err := m.CheckCoherence(); err != nil {
			t.Fatalf("geometry %+v: %v", g, err)
		}
	}
}
