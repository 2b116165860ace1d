package core

import (
	"reflect"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// TestDeterminismResultSet guards the simulator's core contract: two fresh
// machines with the same configuration and workload must take the same
// cycles and produce identical ResultSet output, counter for counter. It
// would catch map-iteration order leaking into the timing model,
// nondeterminism in the runner goroutine handshake, or heap-order
// sensitivity in the quiescence scheduler. The cases are a mixed program
// (reads, writes, fetch-and-adds and compute gaps) on 8 CPUs with tiny
// L2s, and a read/write program on 16 CPUs.
func TestDeterminismResultSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
		prog func(m *Machine) proc.Program
	}{
		{"mixed-8cpu", func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		}, func(m *Machine) proc.Program {
			const lines = 24
			base := m.AllocLines(lines)
			counter := m.AllocLines(1)
			return func(c *proc.Ctx) {
				rng := sim.NewRNG(uint64(c.ID)*977 + 5)
				for i := 0; i < 50; i++ {
					line := base + uint64(rng.Intn(lines))*64
					switch rng.Intn(6) {
					case 0, 1, 2:
						c.Read(line)
					case 3:
						c.Write(line, uint64(c.ID)<<32|uint64(i))
					case 4:
						c.FetchAdd(counter, 1)
					case 5:
						c.Compute(int64(rng.Intn(200)))
					}
				}
				c.Barrier()
			}
		}},
		{"readwrite-16cpu", func() Config { return tinyConfig(4, 2, 2) }, func(m *Machine) proc.Program {
			base := m.AllocLines(64)
			return func(c *proc.Ctx) {
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
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Machine, int64) {
				m, err := New(tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				prog := tc.prog(m)
				progs := make([]proc.Program, m.Geometry().Procs())
				for i := range progs {
					progs[i] = prog
				}
				m.Load(progs)
				return m, m.Run()
			}

			m1, cycles1 := build()
			m2, cycles2 := build()

			if cycles1 != cycles2 {
				t.Errorf("Run(): first=%d second=%d", cycles1, cycles2)
			}
			if m1.Now() != m2.Now() {
				t.Errorf("final cycle: first=%d second=%d", m1.Now(), m2.Now())
			}
			for i := range m1.CPUs {
				if a, b := m1.CPUs[i].FinishedAt(), m2.CPUs[i].FinishedAt(); a != b {
					t.Errorf("cpu[%d] FinishedAt: first=%d second=%d", i, a, b)
				}
			}
			r1, r2 := m1.Results(), m2.Results()
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("ResultSet diverges between identical runs:\nfirst:  %+v\nsecond: %+v", r1, r2)
			}
			if a, b := m1.FastForwarded.Value(), m2.FastForwarded.Value(); a != b {
				t.Errorf("fast-forwarded cycles: first=%d second=%d", a, b)
			}
		})
	}
}
