package core

import (
	"fmt"

	"numachine/internal/proc"
)

// Load assigns programs to the first len(progs) processors. It must be
// called before Run; the remaining processors stay idle. Programs of a
// previous phase that have not finished are abandoned (see Close).
func (m *Machine) Load(progs []proc.Program) {
	if len(progs) > len(m.CPUs) {
		panic(fmt.Sprintf("core: %d programs for %d processors", len(progs), len(m.CPUs)))
	}
	// A new phase starts with no barrier arrivals: a CPU parked at a
	// barrier of the previous phase is not an arrival at this phase's
	// first one. A pool round that panicked (Cycle re-raises a shard's
	// panic) leaves its buffered arrivals and parPhase behind as well.
	m.barrier.participants = len(progs)
	m.barrier.arrived = m.barrier.arrived[:0]
	for s, buf := range m.barrier.parArrived {
		m.barrier.parArrived[s] = buf[:0]
	}
	m.parPhase = false
	m.Close()
	for i := range m.runners {
		m.runners[i] = nil // drop runners from a previous phase
		if i >= len(progs) && !m.CPUs[i].Done() {
			m.CPUs[i].SetRunner(nil) // its program was abandoned mid-reference
		}
	}
	for i, pr := range progs {
		m.runners[i] = proc.NewRunner(i, len(progs), pr)
		m.CPUs[i].SetRunner(m.runners[i])
		if m.Cfg.FastHits {
			m.CPUs[i].Horizon = m.hitHorizonFor(m.CPUs[i])
			m.CPUs[i].EnableFastHits()
		}
	}
	m.resetPolls()
}

// SetDriver arranges for fn to run at a serial point of the run loop
// every `every` cycles, starting at the next step, before that cycle's
// components tick. Drives are part of the simulated experiment, not
// observation: unlike the sampler, they fire at *exactly* the same cycles
// under every cycle loop (the quiescence fast-forward clamps to the next
// drive), so a driver that mutates state visible to workload goroutines —
// the serving layer's dispatcher — keeps the machine bit-identical across
// the test-only reference order and both executors. Pass fn == nil to
// detach.
func (m *Machine) SetDriver(every int64, fn func(*Machine)) {
	if every <= 0 {
		every = 1
	}
	m.driveEvery = every
	m.driveAt = m.now
	m.onDrive = fn
}

// SetServeReport registers the serving layer's results provider; Results
// calls it to fill the Serve section. Pass nil to detach.
func (m *Machine) SetServeReport(fn func() *ServeResults) { m.serveReport = fn }

// Close abandons every loaded program that has not finished — a program
// parked mid-reference unwinds and its goroutine exits (proc.Runner.Stop)
// — and parks the pool's workers. A machine dropped without it while
// programs are parked leaks their goroutines and, through their closures,
// itself. Run closes the machine on every exit, so only callers that drive
// Step themselves, or drop a machine after Load alone, need to call it.
// The machine stays usable: Load starts the next phase.
func (m *Machine) Close() {
	for _, r := range m.runners {
		if r != nil {
			r.Stop()
		}
	}
	if m.pool != nil {
		m.pool.Stop()
	}
}

// Run executes until every loaded program finishes, returning the cycle
// count of the parallel section (max completion time). It panics if the
// deadlock watchdog trips, a component assertion fails or a program
// panics; the machine is closed first either way.
func (m *Machine) Run() int64 {
	start := m.now
	m.resetPolls()
	defer m.Close() // on return every program has finished; on panic they are abandoned
	// Gate on the CPUs, not the runners: a runner reports Done as soon as
	// the RefDone sentinel is fetched, but the CPU may still owe its
	// coalesced trailing compute cycles.
	// Load fills exactly the first barrier.participants processors.
	active := func() bool {
		for _, c := range m.CPUs[:m.barrier.participants] {
			if !c.Done() {
				return true
			}
		}
		return false
	}
	lastRefs, lastAt := int64(-1), m.now
	if m.p.DeadlockCycles > 0 {
		m.watchdogAt = lastAt + m.p.DeadlockCycles
	}
	// Per-transaction forward-progress monitor state, sampled on the same
	// watchdog schedule (the quiescence fast-forward clamps to watchdogAt,
	// so every loop samples at identical cycles and aborts identically).
	var starveRefs []int64
	var starveWins []int
	if m.p.StarvationWindows > 0 {
		starveRefs = make([]int64, len(m.CPUs))
		starveWins = make([]int, len(m.CPUs))
	}
	for active() {
		if m.onDrive != nil && m.now >= m.driveAt {
			// Drive before the cycle's step: the driver sees the machine at
			// the top of cycle now, before any component ticks, exactly as
			// it would in a cycle-by-cycle walk.
			m.onDrive(m)
			m.driveAt = m.now + m.driveEvery
		}
		m.step()
		if m.Cfg.CheckInvariants {
			q := m.Quiesced()
			if q && !m.wasQuiesced {
				if err := m.CheckCoherence(); err != nil {
					panic(fmt.Sprintf("core: invariant violation at cycle %d: %v", m.now, err))
				}
			}
			m.wasQuiesced = q
		}
		if m.onSample != nil && m.now >= m.sampleAt {
			m.onSample(m)
			m.sampleAt = m.now + m.sampleEvery
		}
		if m.p.DeadlockCycles > 0 && m.now-lastAt >= m.p.DeadlockCycles {
			refs := m.totalRefs()
			if refs == lastRefs {
				panic(fmt.Sprintf("core: no progress for %d cycles at cycle %d\n%s",
					m.p.DeadlockCycles, m.now, m.dumpState()))
			}
			// Retry budget: one reference accumulating this many
			// consecutive NAKs is wedged even if the rest of the machine
			// moves (a permanently locked home line, a retry convoy).
			if m.p.MaxRetries > 0 {
				for i, c := range m.CPUs {
					if c.Retries() > m.p.MaxRetries {
						panic(fmt.Sprintf("core: cpu[%d] exceeded the retry budget (%d consecutive NAKs > %d) at cycle %d\n%s",
							i, c.Retries(), m.p.MaxRetries, m.now, m.dumpState()))
					}
				}
			}
			// Starvation: a processor parked in a memory-wait state with
			// no completed reference for StarvationWindows consecutive
			// windows while the machine as a whole progressed (the global
			// no-progress check above did not fire).
			if m.p.StarvationWindows > 0 {
				for i, c := range m.CPUs {
					r := c.Stats.Reads + c.Stats.Writes
					if c.Stalled() && r == starveRefs[i] {
						starveWins[i]++
						if starveWins[i] >= m.p.StarvationWindows {
							panic(fmt.Sprintf("core: cpu[%d] starved for %d watchdog windows (%d cycles) at cycle %d\n%s",
								i, starveWins[i], int64(starveWins[i])*m.p.DeadlockCycles, m.now, m.dumpState()))
						}
					} else {
						starveWins[i] = 0
					}
					starveRefs[i] = r
				}
			}
			lastRefs, lastAt = refs, m.now
			m.watchdogAt = lastAt + m.p.DeadlockCycles
		}
	}
	end := int64(0)
	for i, r := range m.runners {
		if r != nil && m.CPUs[i].FinishedAt() > end {
			end = m.CPUs[i].FinishedAt()
		}
	}
	m.Drain()
	if m.Cfg.CheckInvariants {
		if err := m.CheckCoherence(); err != nil {
			panic(fmt.Sprintf("core: invariant violation after drain at cycle %d: %v", m.now, err))
		}
	}
	return end - start
}

// Drain runs the machine until all queues, rings and controllers are
// empty, so post-run invariant checks see a quiesced system.
func (m *Machine) Drain() {
	limit := m.now + 10_000_000
	for !m.Quiesced() {
		m.step()
		if m.now > limit {
			panic("core: machine failed to drain\n" + m.dumpState())
		}
	}
}

// SyncStats reconciles every lazily-accounted statistic (stall counters,
// utilization) through the last completed cycle. Idempotent. Results()
// calls it before snapshotting.
func (m *Machine) SyncStats() {
	limit := m.now - 1
	if limit < 0 {
		return
	}
	for _, c := range m.CPUs {
		c.SyncStats(limit)
	}
	for _, b := range m.Buses {
		b.SyncStats(limit)
	}
	for _, lr := range m.Locals {
		lr.SyncStats(limit)
	}
	if m.Central != nil {
		m.Central.SyncStats(limit)
	}
}

// Quiesced reports whether no messages remain anywhere in the machine and
// no memory line is still locked by an unfinished lock transaction.
func (m *Machine) Quiesced() bool {
	if !m.deliveryQuiet() {
		return false
	}
	for _, mem := range m.Mems {
		if mem.PendingLocks() > 0 {
			return false
		}
	}
	return true
}

// deliveryQuiet reports whether no messages remain anywhere in the
// machine: every controller and ring interface idle (each Idle covers its
// bus out-queue), every bus free, every CPU out-queue empty, every ring
// drained. Unlike Quiesced it ignores held memory locks — a locked line is
// passive state, not a message source: nothing emanates from it until some
// CPU pushes a new request, and that request pays the full grant-plus-
// directory-stage path like any other. The fast-hit machine-quiet horizon
// therefore gates on this predicate (lock-heavy workloads would otherwise
// never see a deep window), while fast-forwarding and the public API keep
// the stricter Quiesced.
func (m *Machine) deliveryQuiet() bool {
	for _, mem := range m.Mems {
		if !mem.Idle() {
			return false
		}
	}
	for _, nc := range m.NCs {
		if !nc.Idle() {
			return false
		}
	}
	for _, lr := range m.Locals {
		if !lr.Drained() {
			return false
		}
	}
	if m.Central != nil && !m.Central.Drained() {
		return false
	}
	for _, iri := range m.IRIs {
		if !iri.Idle() {
			return false
		}
	}
	for _, ri := range m.RIs {
		if !ri.Idle() {
			return false
		}
	}
	for _, b := range m.Buses {
		if !b.Idle(m.now) {
			return false
		}
	}
	for _, c := range m.CPUs {
		if !c.BusOut().Empty() {
			return false
		}
	}
	return true
}

// quiescedThisCycle memoizes deliveryQuiet() per cycle for the fast-hit
// machine-quiet horizon, which consults it once per handshake: every
// window opened during the same cycle shares a single machine scan. A true
// memo stays sound for the rest of the cycle, including for a CPU that
// reuses it after lower-id CPUs, and lower stations' buses and controllers,
// have ticked (the gated cycle is station-major): with no message anywhere
// when it was taken, those ticks had nothing to move, so any activity since
// is CPU-initiated at or after the current cycle, and the bound reads each
// CPU's wake live (a CPU that just went active contributes wake <= now), so
// the two-transfer argument still covers it however far the request has
// travelled. A memo that turns stale in the other direction (machine
// drained mid-cycle) only under-reports quiescence, which merely narrows
// the window to the bus floor.
func (m *Machine) quiescedThisCycle() bool {
	if m.quiescedAt != m.now {
		m.quiescedAt = m.now
		m.quiescedOK = m.deliveryQuiet()
	}
	return m.quiescedOK
}

func (m *Machine) totalRefs() int64 {
	var n int64
	for _, c := range m.CPUs {
		n += c.Stats.Reads + c.Stats.Writes
	}
	return n
}

// dumpState renders the structured stuck-transaction report for abort
// messages (see progress.go).
func (m *Machine) dumpState() string { return m.Progress().String() }
