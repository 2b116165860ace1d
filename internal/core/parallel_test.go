package core

import (
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// TestLoadClearsStaleBarrierArrivals loads a new phase while CPU 0 is still
// parked at a barrier of the previous one. Its stale arrival must not count
// at the new phase's first barrier: otherwise that barrier releases on CPU
// 0's arrival alone, CPU 1 arrives at a barrier nobody else will reach, and
// the run ends in the no-progress watchdog.
func TestLoadClearsStaleBarrierArrivals(t *testing.T) {
	for _, loop := range equivLoops[1:] {
		cfg := tinyConfig(1, 2, 1)
		cfg.Params.DeadlockCycles = 20_000
		m, err := newLoop(cfg, loop)
		if err != nil {
			t.Fatal(err)
		}
		m.Load([]proc.Program{
			func(c *proc.Ctx) { c.Barrier() },
			func(c *proc.Ctx) { c.Compute(1 << 20); c.Barrier() },
		})
		for m.CPUs[0].StateName() != "waitBarrier" {
			m.Step()
		}
		once := func(c *proc.Ctx) { c.Barrier() }
		m.Load([]proc.Program{once, once})
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			m.Run()
			return ""
		}()
		if msg != "" {
			t.Errorf("%s: Run after Load panicked: %s", loop, msg)
		}
		for i, c := range m.CPUs {
			if !c.Done() {
				t.Errorf("%s: cpu[%d] ends in %s", loop, i, c.StateName())
			}
		}
	}
}

// TestLoadAfterPooledPanic reuses a machine whose pool round panicked:
// CPU 3 panics in the round that releases a 16-station barrier, while
// CPUs of other stations arrive at the next barrier in the same round.
// Their buffered arrivals and the round's parPhase must not outlive Load,
// or the next phase, whose two stations never reach the cutoff and so run
// inline, parks its arrivals in a buffer no round merges.
func TestLoadAfterPooledPanic(t *testing.T) {
	poolMinDue = shippedPoolMinDue
	defer func() { poolMinDue = 1 }()
	m, err := newLoop(tinyConfig(1, 16, 1), equivLoops[2])
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]proc.Program, 16)
	for i := range progs {
		progs[i] = func(c *proc.Ctx) {
			c.Barrier()
			if c.ID == 3 {
				panic("workload bug")
			}
			c.Barrier()
		}
	}
	m.Load(progs)
	func() {
		defer func() { recover() }()
		m.Run()
	}()
	if !m.parPhase {
		t.Fatal("premise: the panic did not end a pool round")
	}
	once := func(c *proc.Ctx) { c.Barrier() }
	m.Load([]proc.Program{once, once})
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		m.Run()
		return ""
	}()
	if msg != "" {
		t.Errorf("Run after Load panicked: %s", msg)
	}
}

// TestPoolDispatchCutoff runs the pooled executor at the shipped
// poolMinDue rather than the suites' 1. A machine with fewer stations than
// the cutoff never reaches it, so its pool must run no round (the helpers
// launch on the first round, so none start) and its run must be
// bit-identical to the inline executor's. A barrier release makes every
// station of a 16-station machine due on one cycle, which must dispatch.
func TestPoolDispatchCutoff(t *testing.T) {
	if poolMinDue != 1 {
		t.Fatalf("the suites run at poolMinDue %d, want 1", poolMinDue)
	}
	if shippedPoolMinDue < 2 || shippedPoolMinDue > 16 {
		t.Fatalf("shipped poolMinDue %d: this test needs 2..16", shippedPoolMinDue)
	}
	poolMinDue = shippedPoolMinDue
	defer func() { poolMinDue = 1 }()

	// inlinePooled runs sc under both executors and compares the runs.
	inlinePooled := func(sc equivScenario) {
		mi, ci, _ := runCase(t, sc, equivRun{loop: equivLoops[1], fast: true})
		mp, cp, _ := runCase(t, sc, equivRun{loop: equivLoops[2], fast: true})
		compareRuns(t, sc.name+" inline", sc.name+" pooled", mi, mp, ci, cp)
	}
	for _, sc := range equivScenarios() {
		before := pooledRounds
		inlinePooled(sc)
		if n := sc.cfg().Geom.Stations(); n < poolMinDue && pooledRounds != before {
			t.Errorf("%s: %d stations, below the cutoff %d, yet %d pool rounds ran",
				sc.name, n, poolMinDue, pooledRounds-before)
		}
	}

	release := equivScenario{
		name: "barrier-release-16",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 1, StationsPerRing: 4, Rings: 4}
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			lines := m.AllocLines(16)
			prog := func(c *proc.Ctx) {
				own := lines + uint64(c.ID)*64
				c.Compute(int64(c.ID) * 97)
				for i := 0; i < 4; i++ {
					c.Read(own)
				}
				c.Barrier()
				c.Write(lines+uint64((c.ID+1)%16)*64, uint64(c.ID))
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}
	before := pooledRounds
	inlinePooled(release)
	if pooledRounds == before {
		t.Errorf("barrier releases on 16 stations ran no pool round at cutoff %d", poolMinDue)
	}
}
