package core

import (
	"fmt"
	"math/bits"

	"numachine/internal/sim"
)

// Step advances the machine one cycle through the gated cycle (stepGated),
// which ticks only components whose activity gate fires and walks the
// station phase station-major. When no component ticked, the machine is
// quiescent and Step jumps m.now to the next scheduled event. The jump is
// exact: no component ticked, so no state can change until the earliest
// reported wake-up, and every per-cycle statistic is reconciled lazily.
// The watchdog and the driver clamp it (serialPoint.clamp), so Run fires
// both at exactly the cycles a cycle-by-cycle walk fires them — including
// on a fully wedged machine, whose sim.Never wake must land on the
// watchdog's next check rather than spin. Under Config.CheckInvariants it
// then runs the invariant loop (checkInvariants) at the cycle it lands on.
//
// Step is the one way the machine advances: Run, drain and the model
// checker all call it. The equivalence suites compare it against a
// test-only reference order that ticks every component every cycle,
// component-major (processors, buses, memory modules, network caches, ring
// interfaces, local rings, central ring); DESIGN.md "Gated cycle loop"
// argues why no component can tell the two orders apart.
func (m *Machine) Step() {
	if m.oracle != nil {
		m.oracle()
		m.checkInvariants(false)
		return
	}
	if m.stepGated() == 0 {
		wake := m.driver.clamp(m.now, m.watchdog.clamp(m.now, m.cachedWake()))
		if wake > m.now && wake != sim.Never {
			m.FastForwarded.Add(wake - m.now)
			m.now = wake
		}
	}
	m.checkInvariants(true)
}

// stepGated is the gated cycle; it returns how many components ticked (0
// means the whole machine was quiescent this cycle and Step may
// fast-forward to cachedWake()). There is one body; the two executors
// differ in phase 1 only:
//
//	phase 1  every station with work ticks its CPUs, bus, memory and NC
//	         (tickStation) — inline in ascending station order, or, under
//	         ParallelStations on a cycle with poolMinDue due stations, one
//	         pool shard per station (parallel.go);
//	phase 2  the interconnect, on the caller's goroutine: every RI, then
//	         every local ring (tickRIs, tickLocals: the reference order);
//	tail     the central ring.
//
// The poll caches make the gate pass cost proportional to the components
// that are due and the FIFOs that were filled rather than to the machine
// size. Every entry pollX[i] is component i's own wake, the NextWork it
// reported after its last tick or that a mark read for it, so the gate is
// one comparison and a due component ticks without being asked again:
// every gate block is "if poll <= now { X.Tick(now); poll =
// X.NextWork(now+1); marks }". stationNext[s] / ringNext[r] are the minimum
// over one station's / one ring group's entries, so an idle station or ring
// group costs one comparison in all, in either phase.
//
// Marks follow the data: a mark fires when the FIFO the receiver's NextWork
// reads holds something after the feeder's tick, and it writes the
// receiver's own wake, read from the state just fed. The phase-1 marks read
// and write only state of the station that evaluates them (parallel.go
// relies on that):
//
//	CPU tick     -> its bus, at b.NextWork(now): iff its BusOut is non-empty.
//	bus tick     -> mem, NC, CPU k: iff the transfer was delivered to it (the
//	                set Bus.Tick returns); mem and NC at their NextWork(now)
//	                (they tick later this cycle), CPU k at its
//	                NextWork(now+1).
//	             -> its local ring, at the ring's edge of the RI's
//	                NextInject: iff it delivered to the RI. Staged in
//	                busFedRing and merged by feedRing.
//	                The RI itself is not marked: its NextWork reads only its
//	                input FIFO, and BusDeliver's loop-back branch fills the
//	                RI's BusOut, which the bus's own post-tick wake reads.
//	mem/NC tick  -> its bus, at b.NextWork(now+1): iff its BusOut is non-empty.
//	RI tick      -> its bus, at b.NextWork(now+1): iff its BusOut is non-empty.
//	local tick   -> each member RI, at its NextWork(now+1).
//	             -> the central ring, at its edge of the IRI's up-FIFO head
//	                (IRI.UpReadyAt), which may be now: the tail of this
//	                cycle ticks it.
//	central tick -> each local ring r, at its edge of IRI r's down-FIFO head
//	                (IRI.DownReadyAt), no earlier than now+1.
//	any tick     -> itself: X.NextWork(now+1), asked right after X.Tick(now).
//	last barrier -> each arrived CPU, at its release cycle (arriveSerial).
//	  arrival
//
// So at the top of every cycle each entry agrees with its component's own
// NextWork on whether it is due: entry <= now iff NextWork(now) <= now.
// Under Config.CheckInvariants auditGates proves exactly that, in both
// directions, at every cycle a run stops at. A component therefore ticks
// iff its NextWork(now) <= now at its slot in the cycle, and the set of
// (component, cycle) ticks is the reference loop's.
func (m *Machine) stepGated() int {
	now := m.now
	ticked := m.stationPhase(now)
	if dueAtLeast(m.ringNext, now, 1) {
		ticked += m.tickRIs(now) + m.tickLocals(now)
	}
	ticked += m.tail(now)
	m.now++
	return ticked
}

// stationPhase is phase 1: every due station's tickStation, inline in
// ascending station order or, on a cycle with at least poolMinDue due
// stations, on the pool.
func (m *Machine) stationPhase(now int64) int {
	if m.pool != nil && dueAtLeast(m.stationNext, now, poolMinDue) {
		return m.stationPhasePooled(now)
	}
	ticked := 0
	for s, next := range m.stationNext {
		if next <= now {
			ticked += m.tickStation(s, now)
			m.feedRing(s, now)
		}
	}
	return ticked
}

// feedRing merges station s's staged bus -> local-ring mark (busFedRing)
// into its ring group's entries: the ring's edge at which the RI's send
// queues can next inject. The inline executor calls it right after the
// station's tickStation; the pooled one after the pool's barrier, because
// two stations of one ring would write the same pollLocal entry from
// different shards.
func (m *Machine) feedRing(s int, now int64) {
	if !m.busFedRing[s] {
		return
	}
	m.busFedRing[s] = false
	r := m.ringOf[s]
	at := m.Locals[r].NextEdge(max(m.RIs[s].NextInject(), now))
	m.pollLocal[r] = min(m.pollLocal[r], at)
	m.ringNext[r] = min(m.ringNext[r], at)
}

// dueAtLeast reports whether at least n (>= 1) of the aggregate wakes in
// next have come due.
func dueAtLeast(next []int64, now int64, n int) bool {
	for _, at := range next {
		if at <= now {
			if n--; n == 0 {
				return true
			}
		}
	}
	return false
}

// tickStation runs the gated phase-1 ticks for station s and reports how
// many components ticked. Everything it touches is station-s state (the
// poll-cache entries of station s's components included), which is what
// lets the pool run one call per station concurrently.
func (m *Machine) tickStation(s int, now int64) int {
	ticked := 0
	first := m.g.ProcAt(s, 0)
	cpus := m.pollCPU[first : first+m.g.ProcsPerStation]
	b := m.Buses[s]
	for k, at := range cpus {
		if at <= now {
			c := m.CPUs[first+k]
			c.Tick(now)
			ticked++
			cpus[k] = c.NextWork(now + 1)
			if !c.BusOut().Empty() {
				m.pollBus[s] = b.NextWork(now)
			}
		}
	}
	if m.pollBus[s] <= now {
		to := b.Tick(now)
		ticked++
		m.pollBus[s] = b.NextWork(now + 1)
		for ; to != 0; to &= to - 1 {
			switch mod := bits.TrailingZeros32(to); mod {
			case m.g.ModMem():
				m.pollMem[s] = m.Mems[s].NextWork(now)
			case m.g.ModNC():
				m.pollNC[s] = m.NCs[s].NextWork(now)
			case m.g.ModRI():
				m.busFedRing[s] = true
			default:
				cpus[mod] = m.CPUs[first+mod].NextWork(now + 1)
			}
		}
	}
	if m.pollMem[s] <= now {
		mem := m.Mems[s]
		mem.Tick(now)
		ticked++
		m.pollMem[s] = mem.NextWork(now + 1)
		if !mem.BusOut().Empty() {
			m.pollBus[s] = b.NextWork(now + 1)
		}
	}
	if m.pollNC[s] <= now {
		nc := m.NCs[s]
		nc.Tick(now)
		ticked++
		m.pollNC[s] = nc.NextWork(now + 1)
		if !nc.BusOut().Empty() {
			m.pollBus[s] = b.NextWork(now + 1)
		}
	}
	// A barrier arrival during the ticks may have marked any CPU entry, so
	// the aggregate is read back from the entries rather than tracked.
	m.stationNext[s] = m.stationMin(s)
	return ticked
}

// stationMin is station s's aggregate wake: the minimum over the entries of
// its CPUs, bus, memory module and NC.
func (m *Machine) stationMin(s int) int64 {
	next := min(m.pollBus[s], m.pollMem[s], m.pollNC[s])
	first := m.g.ProcAt(s, 0)
	for _, at := range m.pollCPU[first : first+m.g.ProcsPerStation] {
		next = min(next, at)
	}
	return next
}

// tickRI is the gate-and-tick block of station s's ring interface.
func (m *Machine) tickRI(s int, now int64) int {
	if m.pollRI[s] > now {
		return 0
	}
	ri := m.RIs[s]
	ri.Tick(now)
	m.pollRI[s] = ri.NextWork(now + 1)
	if !ri.BusOut().Empty() {
		m.pollBus[s] = m.Buses[s].NextWork(now + 1)
		m.stationNext[s] = min(m.stationNext[s], m.pollBus[s])
	}
	return 1
}

// tickLocal is the gate-and-tick block of local ring r.
func (m *Machine) tickLocal(r int, now int64) int {
	if m.pollLocal[r] > now {
		return 0
	}
	lr := m.Locals[r]
	lr.Tick(now)
	m.pollLocal[r] = lr.NextWork(now + 1)
	for pos := 0; pos < m.g.StationsPerRing; pos++ {
		s := m.g.StationAt(r, pos)
		m.pollRI[s] = min(m.pollRI[s], m.RIs[s].NextWork(now+1))
	}
	if m.Central != nil {
		at := m.Central.NextEdge(max(m.IRIs[r].UpReadyAt(), now))
		m.pollCentral = min(m.pollCentral, at)
	}
	return 1
}

// ringMin is ring group r's aggregate wake: the minimum over the entries of
// the local ring and its member RIs.
func (m *Machine) ringMin(r int) int64 {
	next := m.pollLocal[r]
	for pos := 0; pos < m.g.StationsPerRing; pos++ {
		next = min(next, m.pollRI[m.g.StationAt(r, pos)])
	}
	return next
}

// tickRIs and tickLocals are phase 2, the interconnect in the reference
// order: every RI, then every local ring — of the ring groups that are due;
// a group with ringNext[r] > now has every entry > now and is skipped in
// both passes (station ids are ring-major, so the RI pass stays in
// ascending station order). The order is part of the model, not a
// convenience: with some station at its flow-control credit cap a
// TryAcquire outcome depends on the releases other ring groups made earlier
// in the same cycle.
func (m *Machine) tickRIs(now int64) int {
	ticked := 0
	for r, next := range m.ringNext {
		if next > now {
			continue
		}
		for pos := 0; pos < m.g.StationsPerRing; pos++ {
			ticked += m.tickRI(m.g.StationAt(r, pos), now)
		}
	}
	return ticked
}

func (m *Machine) tickLocals(now int64) int {
	ticked := 0
	for r, next := range m.ringNext {
		if next > now {
			continue
		}
		ticked += m.tickLocal(r, now)
		m.ringNext[r] = m.ringMin(r)
	}
	return ticked
}

// tail finishes cycle now: the gate-and-tick block of the central ring.
func (m *Machine) tail(now int64) int {
	if m.Central == nil || m.pollCentral > now {
		return 0
	}
	m.Central.Tick(now)
	m.pollCentral = m.Central.NextWork(now + 1)
	for r, iri := range m.IRIs {
		at := m.Locals[r].NextEdge(max(iri.DownReadyAt(), now+1))
		m.pollLocal[r] = min(m.pollLocal[r], at)
		m.ringNext[r] = min(m.ringNext[r], at)
	}
	return 1
}

// cachedWake returns the earliest future cycle at which any component can
// do work, read from the aggregate wakes (each the minimum of the poll
// caches it covers, see stepGated). It is meant for right after a fully
// quiescent stepGated pass: every entry is then its component's own wake,
// so the minimum is the next event exactly, and a jump to it lands on a
// cycle where some component ticks.
func (m *Machine) cachedWake() int64 {
	wake := m.pollCentral
	for _, at := range m.stationNext {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.ringNext {
		if at < wake {
			wake = at
		}
	}
	return wake
}

// auditGates is the poll caches' self-check, armed by Config.CheckInvariants
// and run at the top of cycle m.now (after a step, before the next drive):
// every cached entry must agree with the component's own NextWork on
// whether it is due (entry <= now iff NextWork(now) <= now), and every
// aggregate must be the minimum of the entries it covers, because
// cachedWake and the phase skips read only the aggregates. A stale-late
// entry is a tick about to be lost, a stale-early one a tick of a component
// with nothing to do; either is reported here at that cycle instead of as a
// digest mismatch thousands of cycles later.
func (m *Machine) auditGates() error {
	now := m.now
	cyc := func(at int64) string {
		if at == sim.Never {
			return "Never"
		}
		return fmt.Sprint(at)
	}
	var err error
	check := func(kind string, i int, cached int64, c interface{ NextWork(int64) int64 }) {
		if err == nil && (cached <= now) != (c.NextWork(now) <= now) {
			err = fmt.Errorf("gate audit at cycle %d: %s %d cached %s but NextWork %s",
				now, kind, i, cyc(cached), cyc(c.NextWork(now)))
		}
	}
	aggregate := func(kind string, i int, agg, least int64) {
		if err == nil && agg != least {
			err = fmt.Errorf("gate audit at cycle %d: %s %d aggregate %s but its entries' minimum %s",
				now, kind, i, cyc(agg), cyc(least))
		}
	}
	for s := range m.Buses {
		first := m.g.ProcAt(s, 0)
		for i := first; i < first+m.g.ProcsPerStation; i++ {
			check("cpu", i, m.pollCPU[i], m.CPUs[i])
		}
		check("bus", s, m.pollBus[s], m.Buses[s])
		check("mem", s, m.pollMem[s], m.Mems[s])
		check("nc", s, m.pollNC[s], m.NCs[s])
		check("ri", s, m.pollRI[s], m.RIs[s])
		aggregate("station", s, m.stationNext[s], m.stationMin(s))
	}
	for r, lr := range m.Locals {
		check("local ring", r, m.pollLocal[r], lr)
		aggregate("ring group", r, m.ringNext[r], m.ringMin(r))
	}
	if m.Central != nil {
		check("central ring", 0, m.pollCentral, m.Central)
	}
	return err
}

// checkInvariants is the machine's invariant loop, run under
// Config.CheckInvariants at the end of every Step:
// the gate audit after a gated cycle (the reference order has no poll
// caches), and CheckCoherence on each entry into quiescence. A violation
// panics with its cycle and rule.
func (m *Machine) checkInvariants(gated bool) {
	if !m.Cfg.CheckInvariants {
		return
	}
	if gated {
		if err := m.auditGates(); err != nil {
			panic("core: " + err.Error())
		}
	}
	q := m.Quiesced()
	if q && !m.wasQuiesced {
		if err := m.CheckCoherence(); err != nil {
			panic(fmt.Sprintf("core: invariant violation at cycle %d: %v", m.now, err))
		}
	}
	m.wasQuiesced = q
}

// resetPolls seeds every poll cache with its component's own NextWork, so
// the next gated cycle starts from exact entries. Load calls it (new
// runners change CPU state outside the loop) and Run calls it on entry.
func (m *Machine) resetPolls() {
	now := m.now
	for i, c := range m.CPUs {
		m.pollCPU[i] = c.NextWork(now)
	}
	for s := range m.pollBus {
		m.pollBus[s] = m.Buses[s].NextWork(now)
		m.pollMem[s] = m.Mems[s].NextWork(now)
		m.pollNC[s] = m.NCs[s].NextWork(now)
		m.pollRI[s] = m.RIs[s].NextWork(now)
		m.stationNext[s] = m.stationMin(s)
		m.busFedRing[s] = false
	}
	for r, lr := range m.Locals {
		m.pollLocal[r] = lr.NextWork(now)
		m.ringNext[r] = m.ringMin(r)
	}
	// A machine without a central ring keeps a Never entry: it is folded
	// into cachedWake unconditionally.
	m.pollCentral = sim.Never
	if m.Central != nil {
		m.pollCentral = m.Central.NextWork(now)
	}
}
