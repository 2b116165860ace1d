package core

import "numachine/internal/proc"

// barrierCtl implements the hardware barrier-register synchronization of
// §3.2: arrival is a multicast register write; once every participant has
// arrived, releases propagate with a ring-traversal latency.
type barrierCtl struct {
	participants int
	arrived      []*proc.CPU
	parArrived   [][]*proc.CPU // phase-1 arrival buffers, one per station
}

// barrierArrive records a CPU's arrival. During a pooled station phase
// arrivals land in the caller's station buffer (each buffer is touched by
// exactly one worker); flushParallelArrivals merges them afterwards.
func (m *Machine) barrierArrive(c *proc.CPU, now int64) {
	if m.parPhase {
		s := c.Station
		m.barrier.parArrived[s] = append(m.barrier.parArrived[s], c)
		return
	}
	m.arriveSerial(c, now)
}

func (m *Machine) arriveSerial(c *proc.CPU, now int64) {
	m.barrier.arrived = append(m.barrier.arrived, c)
	if len(m.barrier.arrived) < m.barrier.participants {
		return
	}
	// All arrived: release everyone after a multicast traversal delay. The
	// release cycle is each CPU's own wake, so it is marked like one.
	at := now + m.barrierLatency()
	for _, cpu := range m.barrier.arrived {
		cpu.FinishBarrier(at)
		m.pollCPU[cpu.GlobalID] = at
		m.stationNext[cpu.Station] = min(m.stationNext[cpu.Station], at)
	}
	m.barrier.arrived = m.barrier.arrived[:0]
}

// barrierLatency approximates the multicast of barrier-register writes:
// one traversal of the ring hierarchy.
func (m *Machine) barrierLatency() int64 {
	hops := m.g.StationsPerRing + 1
	if m.g.Rings > 1 {
		hops += m.g.Rings + m.g.StationsPerRing + 1
	}
	return int64(hops*m.p.RingHopCycles + 2*m.p.BusArbCycles + 2*m.p.BusCmdCycles)
}
