package core

// The pooled executor of the gated cycle (Config.ParallelStations): what
// stepGated does differently when a sim.ShardPool is running. The cycle
// body — gates, influence marks, tick functions — is the one in stepGated;
// this file only dispatches it across workers:
//
//	phase 1  tickStation runs for all stations concurrently, one shard
//	         each; barrier arrivals are buffered per station and merged in
//	         station order afterwards;
//	phase 2  with credit headroom, the interconnect runs one shard per
//	         ring group — the ring's station interfaces in station order,
//	         then the local ring (tickRingGroup). Ring state is per-ring — a
//	         local ring touches only its own slots, its member RIs and its
//	         IRI's local port, and the marks it sets are conditioned on those
//	         RIs' input FIFOs and that IRI's FIFOs — so the only cross-shard
//	         coupling is the flow-control credit accounting (below);
//	tail     the central-ring tick is deferred and overlapped with the
//	         next cycle's phase-1 dispatch (flushTail).
//
// A phase-1 component's visible state depends only on earlier components of
// its own station, a phase-2 component's only on earlier components of its
// own ring group plus the commutative credit counters, so any interleaving
// of shards is value-identical to the inline executor.
//
// Flow-control credits are the one piece of phase-2 state written across
// shards: StationRI.Tick and the fault-drop paths release the credit of a
// packet's *source* station, which can live on any ring. Sharding is
// therefore gated on the per-cycle lookahead mask m.credits.Headroom():
//
//   - every ring-bound message is injected at its source station (all
//     Message constructors stamp SrcStation with their own station), so
//     only station s's own RI ever acquires credit s;
//   - a ring presents one slot per node per edge and edges come at most
//     once per CPU cycle, so at most ONE acquire per station per cycle;
//   - hence, when every station holds at least one free credit at the
//     start of the phase, every acquire succeeds regardless of how the
//     concurrent releases interleave, releases commute (atomic adds),
//     and the sharded outcome is value-identical to the serial order.
//
// On the rare cycle where some station is at its credit cap stepGated runs
// the interconnect phase inline (tickRingsSerial) — bit-identical by
// construction, merely slower.
//
// Both dispatches are skipped on cycles where no shard of the phase has
// work (stationNext / ringNext), so a machine with traffic on one ring does
// not pay two barrier rounds for sixteen idle stations.

// runShard dispatches one pool shard according to the current phase. In
// phase 1 the shard is a station; in phase 2 the shard leads a ring group
// when it is the ring's first station (the block partition then spreads
// ring groups across workers) and is idle otherwise. parPhase is written
// at the serial point before each dispatch; the pool's epoch barrier
// carries the happens-before edge.
func (m *Machine) runShard(shard int, now int64) int {
	if m.parPhase == 1 {
		if m.stationNext[shard] > now {
			return 0
		}
		return m.tickStation(shard, now)
	}
	r := m.ringOf[shard]
	if m.g.PosOf(shard) != 0 || m.ringNext[r] > now {
		return 0
	}
	return m.tickRingGroup(r, now)
}

// stationPhasePooled is phase 1 on the pool. The previous cycle's deferred
// central tail runs on the caller between releasing the workers and the
// barrier (see flushTail for why that is safe).
func (m *Machine) stationPhasePooled(now int64) int {
	if !anyDue(m.stationNext, now) {
		m.flushTail()
		return 0
	}
	m.parPhase = 1
	m.pool.CycleStart(now)
	m.flushTail()
	ticked := m.pool.CycleWait()
	m.parPhase = 0
	m.flushParallelArrivals(now)
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

// tickRingGroup runs the phase-2 ticks of one ring group: the ring's
// station interfaces in station order, then the local ring. The relative
// order within the group matches the reference order (lower RIs first,
// every RI before its ring); everything it touches but the credit counters
// is owned by ring r.
func (m *Machine) tickRingGroup(r int, now int64) int {
	ticked := 0
	for pos := 0; pos < m.g.StationsPerRing; pos++ {
		ticked += m.tickRI(m.g.StationAt(r, pos), now)
	}
	ticked += m.tickLocal(r, now)
	m.setRingNext(r)
	return ticked
}

// flushTail performs a deferred central-ring tick. It runs on the caller
// goroutine, either overlapped with a phase-1 dispatch or at a serial
// point (Quiesced, SyncStats, the run loop's drive/sample hooks call it
// before observing). Overlap safety: phase-1 shards write only station
// state and their own poll caches (pollCPU/pollBus/pollMem/pollNC,
// stationNext, busFedRing), and the one interconnect structure they read to
// condition a mark is their own RI's send queues (OutPending), which only
// their own bus pushes and only phase 2 pops; the tail writes only
// interconnect state — the central ring, the IRIs' central ports,
// pollCentral, pollLocal, ringNext — plus the atomic credit and message
// reference counters, and conditions its mark on the IRI down FIFOs it has
// just pushed (DownPending), which otherwise only phase 2 touches. The
// serial op order is preserved exactly: phase 2 of cycle N finished before
// the deferral was recorded, and the flush completes before anything of
// cycle N+1 reads interconnect state.
func (m *Machine) flushTail() {
	if m.tailPending {
		m.tailPending = false
		m.tail(m.tailAt, true)
	}
}
