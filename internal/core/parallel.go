package core

// The pooled executor of the gated cycle (Config.ParallelStations): what
// stepGated does differently when a sim.ShardPool is running. The cycle
// body — gates, influence marks, tick functions — is the one in cycle.go;
// this file only dispatches phase 1 across workers: tickStation runs for
// all due stations concurrently, one shard each, and barrier arrivals are
// buffered per station and merged in station order afterwards. The
// machine's own goroutine is worker 0 and ticks the first block of
// stations itself while the pool's helpers tick the rest. The interconnect
// (phase 2 and the tail) always runs on the machine's goroutine, after the
// pool's barrier, so nothing in it is shared.
//
// A phase-1 component's visible state depends only on earlier components
// of its own station: a station shard reads and writes its own CPUs, bus,
// memory, NC, poll-cache entries and busFedRing flag, pushes into its own
// RI's send queues (BusDeliver) and reads that RI's and its local ring's
// state, which nothing writes before phase 2. Any interleaving of shards is
// therefore value-identical to the inline executor's ascending order. Ring
// latency is the lookahead that makes this possible: whatever a station
// hands its RI in cycle N cannot reach another station before the ring
// phase of cycle N has moved it.
//
// Because the two orders are value-identical, the executor may pick either
// one cycle by cycle. A pool round costs more than a whole inline station
// phase unless many stations are due, so stationPhase dispatches only on
// cycles with at least poolMinDue due stations (counted from stationNext)
// and runs every other cycle inline, with parPhase false. DESIGN.md "Gated
// cycle loop" has the traffic histogram and the sweep the value comes from.

// poolMinDue is the fewest due stations for which phase 1 goes to the
// pool. The test suites lower it to 1 so that their pooled axis dispatches
// on every cycle with station work.
var poolMinDue = 8

// runShard is the pool's shard function: station s's phase-1 ticks.
func (m *Machine) runShard(s int, now int64) int {
	if m.stationNext[s] > now {
		return 0
	}
	return m.tickStation(s, now)
}

// stationPhasePooled is phase 1 on the pool.
func (m *Machine) stationPhasePooled(now int64) int {
	m.parPhase = true
	ticked := m.pool.Cycle(now)
	m.parPhase = false
	m.flushParallelArrivals(now)
	if ticked > 0 { // busFedRing is set only by a bus tick, which is counted
		for s := range m.busFedRing {
			m.feedRing(s, now)
		}
	}
	return ticked
}

// flushParallelArrivals replays the barrier arrivals buffered during a
// pooled phase 1 (barrierArrive) in station order. Processor ids are
// station-major and each buffer preserves local tick order, so the merged
// sequence is exactly the order the inline executor produces.
func (m *Machine) flushParallelArrivals(now int64) {
	for s, buf := range m.barrier.parArrived {
		for _, c := range buf {
			m.arriveSerial(c, now)
		}
		m.barrier.parArrived[s] = buf[:0]
	}
}
