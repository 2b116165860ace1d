package core

import (
	"reflect"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

func tinyConfig(procs, stations, rings int) Config {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: procs, StationsPerRing: stations, Rings: rings}
	cfg.Params.L2Lines = 256 // small caches exercise evictions
	cfg.Params.NCLines = 512
	cfg.Params.DeadlockCycles = 200_000
	return cfg
}

func run(t *testing.T, cfg Config, progs []proc.Program) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
	return m
}

func TestSingleProcessorReadBack(t *testing.T) {
	cfg := tinyConfig(1, 1, 1)
	var base uint64
	prog := func(c *proc.Ctx) {
		for i := uint64(0); i < 64; i++ {
			c.Write(base+i*64, 1000+i)
		}
		for i := uint64(0); i < 64; i++ {
			if v := c.Read(base + i*64); v != 1000+i {
				t.Errorf("line %d: read %d, want %d", i, v, 1000+i)
			}
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base = m.AllocLines(64)
	m.Load([]proc.Program{prog})
	cycles := m.Run()
	if cycles <= 0 {
		t.Fatalf("parallel section took %d cycles", cycles)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}

// TestRunWaitsForTrailingCompute: a runner reports Done as soon as the
// RefDone sentinel is fetched, but Run must keep stepping until every
// loaded CPU — the last loaded one included — has served the compute
// cycles coalesced into that sentinel.
func TestRunWaitsForTrailingCompute(t *testing.T) {
	const tail = 5000
	cfg := tinyConfig(2, 2, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := m.AllocLines(1)
	m.Load([]proc.Program{
		func(c *proc.Ctx) { c.Read(addr) },
		func(c *proc.Ctx) { c.Read(addr); c.Compute(tail) },
	})
	if cycles := m.Run(); cycles < tail {
		t.Fatalf("Run returned after %d cycles, before CPU 1's %d trailing compute cycles", cycles, tail)
	}
	// Those cycles are quiescent and must be jumped, on a single-ring
	// machine too: a local-ring tick used to lower pollCentral, which no
	// central ring was there to raise again, pinning cachedWake in the past.
	if ff := m.FastForwarded.Value(); ff < tail/2 {
		t.Errorf("only %d of %d idle cycles fast-forwarded on a single-ring machine", ff, tail)
	}
}

// TestStepFastForwards drives a machine through Step alone, as the model
// checker does: a 50 000-cycle compute must be jumped, not walked one idle
// cycle per call, and the machine must end exactly where Run leaves a twin.
func TestStepFastForwards(t *testing.T) {
	cfg := tinyConfig(2, 2, 1)
	build := func() *Machine {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr := m.AllocLines(1)
		m.Load([]proc.Program{func(c *proc.Ctx) { c.Compute(50_000); c.Read(addr) }})
		return m
	}
	twin := build()
	twin.Run()

	m := build()
	defer m.Close()
	steps := 0
	for !m.CPUs[0].Done() || !m.Quiesced() {
		if steps++; steps > 500 {
			t.Fatalf("%d steps reached only cycle %d: Step walks idle cycles", steps, m.Now())
		}
		m.Step()
	}
	if ff := m.FastForwarded.Value(); ff < 49_000 {
		t.Errorf("Step fast-forwarded %d cycles, want at least 49 000", ff)
	}
	if got, want := m.Results(), twin.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("stepped machine's results diverge from Run's:\nStep: %+v\nRun:  %+v", got, want)
	}
}

func TestStationSharing(t *testing.T) {
	cfg := tinyConfig(4, 1, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := m.AllocLines(32)
	prog := func(c *proc.Ctx) {
		if c.ID == 0 {
			for i := uint64(0); i < 32; i++ {
				c.Write(base+i*64, 7000+i)
			}
		}
		c.Barrier()
		for i := uint64(0); i < 32; i++ {
			if v := c.Read(base + i*64); v != 7000+i {
				t.Errorf("proc %d line %d: read %d, want %d", c.ID, i, v, 7000+i)
			}
		}
	}
	m.Load([]proc.Program{prog, prog, prog, prog})
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}

func TestRemoteSharingAcrossRings(t *testing.T) {
	cfg := tinyConfig(2, 2, 2) // 8 processors, 4 stations, 2 rings + central
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 64
	base := m.AllocLines(lines) // round-robin pages across all stations
	prog := func(c *proc.Ctx) {
		if c.ID == 0 {
			for i := uint64(0); i < lines; i++ {
				c.Write(base+i*64, 0x5000+i)
			}
		}
		c.Barrier()
		for i := uint64(0); i < lines; i++ {
			if v := c.Read(base + i*64); v != 0x5000+i {
				t.Errorf("proc %d line %d: read %#x, want %#x", c.ID, i, v, 0x5000+i)
			}
		}
		c.Barrier()
		// Every processor takes turns owning a line: write migration.
		mine := base + uint64(c.ID)*64
		c.Write(mine, uint64(c.ID))
		c.Barrier()
		next := base + uint64((c.ID+1)%c.NProcs)*64
		if v := c.Read(next); v != uint64((c.ID+1)%c.NProcs) {
			t.Errorf("proc %d: neighbour line holds %d", c.ID, v)
		}
	}
	progs := make([]proc.Program, 8)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}

func TestFetchAddAtomicity(t *testing.T) {
	cfg := tinyConfig(4, 2, 2) // 16 processors
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := m.AllocLines(1)
	const per = 50
	prog := func(c *proc.Ctx) {
		for i := 0; i < per; i++ {
			c.FetchAdd(counter, 1)
		}
		c.Barrier()
		if c.ID == 0 {
			if v := c.Read(counter); v != uint64(per*c.NProcs) {
				t.Errorf("counter = %d, want %d", v, per*c.NProcs)
			}
		}
	}
	progs := make([]proc.Program, 16)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	cfg := tinyConfig(2, 4, 1) // 8 processors on one ring
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lock := m.AllocLines(1)
	shared := m.AllocLines(1)
	const per = 20
	prog := func(c *proc.Ctx) {
		for i := 0; i < per; i++ {
			c.AcquireLock(lock)
			v := c.Read(shared)
			c.Compute(5)
			c.Write(shared, v+1) // non-atomic increment protected by the lock
			c.ReleaseLock(lock)
		}
		c.Barrier()
		if c.ID == 0 {
			if v := c.Read(shared); v != uint64(per*c.NProcs) {
				t.Errorf("shared = %d, want %d (lock failed to serialize)", v, per*c.NProcs)
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
		t.Fatalf("coherence violated: %v", err)
	}
}

func TestRandomizedStress(t *testing.T) {
	cfg := tinyConfig(4, 4, 4) // full 64-processor prototype, tiny caches
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines = 96
	base := m.AllocLines(lines)
	counters := m.AllocLines(8)
	const ops = 300
	prog := func(c *proc.Ctx) {
		rng := sim.NewRNG(uint64(c.ID)*2654435761 + 12345)
		for i := 0; i < ops; i++ {
			line := base + uint64(rng.Intn(lines))*64
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				c.Read(line)
			case 6, 7:
				c.Write(line, uint64(c.ID)<<32|uint64(i))
			case 8:
				c.FetchAdd(counters+uint64(rng.Intn(8))*64, 1)
			case 9:
				c.Compute(int64(rng.Intn(20)))
			}
		}
	}
	progs := make([]proc.Program, 64)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}
