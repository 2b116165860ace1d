package core

import (
	"testing"
	"testing/quick"

	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// TestProtocolQuick is a property test over the whole machine: for random
// geometries, cache sizes, protocol options and reference streams, every
// run must terminate, pass the coherence audit, and keep an atomic counter
// exact. testing/quick drives the randomness; each case is a complete
// machine simulation.
func TestProtocolQuick(t *testing.T) {
	type seed struct {
		Geom    uint8
		Caches  uint8
		Options uint8
		Stream  uint16
	}
	geoms := []topo.Geometry{
		{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1},
		{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2},
		{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2},
		{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3},
	}
	f := func(s seed) bool {
		g := geoms[int(s.Geom)%len(geoms)]
		cfg := DefaultConfig()
		cfg.Geom = g
		cfg.Params.L2Lines = []int{32, 64, 256}[int(s.Caches)%3]
		cfg.Params.NCLines = []int{128, 512}[int(s.Caches/8)%2]
		cfg.Params.SCLocking = s.Options&1 != 0
		cfg.Params.DeadlockCycles = 2_000_000
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const lines = 48
		base := m.AllocLines(lines)
		counter := m.AllocLines(1)
		nprocs := g.Procs()
		const perProc = 60
		prog := func(c *proc.Ctx) {
			rng := sim.NewRNG(uint64(s.Stream)<<16 | uint64(c.ID) | 1)
			for i := 0; i < perProc; i++ {
				line := base + uint64(rng.Intn(lines))*64
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					c.Read(line)
				case 4, 5:
					c.Write(line, uint64(c.ID)<<32|uint64(i))
				case 6:
					c.FetchAdd(counter, 1)
				case 7:
					c.Prefetch(line)
				}
			}
			c.Barrier()
			if c.ID == 0 {
				want := uint64(0)
				for p := 0; p < nprocs; p++ {
					rng := sim.NewRNG(uint64(s.Stream)<<16 | uint64(p) | 1)
					for i := 0; i < perProc; i++ {
						rng.Intn(lines)
						if rng.Intn(8) == 6 {
							want++
						}
					}
				}
				if got := c.Read(counter); got != want {
					t.Errorf("seed %+v: counter %d, want %d", s, got, want)
				}
			}
		}
		progs := make([]proc.Program, nprocs)
		for i := range progs {
			progs[i] = prog
		}
		m.Load(progs)
		m.Run()
		if err := m.CheckCoherence(); err != nil {
			t.Errorf("seed %+v: %v", s, err)
			return false
		}
		return true
	}
	cfgQuick := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfgQuick.MaxCount = 4
	}
	if err := quick.Check(f, cfgQuick); err != nil {
		t.Error(err)
	}
}
