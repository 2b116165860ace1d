package core

// The reference order the equivalence suites judge the gated cycle by:
// every component ticks every cycle, component-major — every CPU, then
// every bus, memory module, network cache, ring interface, local ring, the
// central ring — with no activity gates, no poll caches and no quiescence
// fast-forward. It lives only here; production reaches it through one
// seam, Machine.oracle, which Step calls instead of the gated
// cycle when it is set.

import "numachine/internal/sim"

// stepNaive advances the machine one cycle in the reference order.
func (m *Machine) stepNaive() {
	now := m.now
	for _, c := range m.CPUs {
		c.Tick(now)
	}
	for _, b := range m.Buses {
		b.Tick(now)
	}
	for _, mem := range m.Mems {
		mem.Tick(now)
	}
	for _, nc := range m.NCs {
		nc.Tick(now)
	}
	for _, ri := range m.RIs {
		ri.Tick(now)
	}
	for _, lr := range m.Locals {
		lr.Tick(now)
	}
	if m.Central != nil {
		m.Central.Tick(now)
	}
	m.now++
}

// pooledRounds counts the pool rounds run by the machines newLoop builds.
// Shard 0 belongs to block 0, which the machine's own goroutine runs, so
// counting there needs no atomic.
var pooledRounds int64

// newLoop builds cfg's machine under the named loop of equivLoops: the
// first steps in the reference order, the last requests the pooled
// executor (its rounds counted in pooledRounds), anything else runs the
// inline one.
func newLoop(cfg Config, loop string) (*Machine, error) {
	if loop == "parallel" {
		cfg.ParallelStations = true
	}
	m, err := New(cfg)
	if err == nil && loop == "naive" {
		m.oracle = m.stepNaive
	}
	if err == nil && m.pool != nil {
		m.pool = sim.NewShardPool(m.pool.Workers(), m.g.Stations(), func(s int, now int64) int {
			if s == 0 {
				pooledRounds++
			}
			return m.runShard(s, now)
		})
	}
	return m, err
}
