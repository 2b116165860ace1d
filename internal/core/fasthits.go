package core

// The fast-hit delivery horizon: a sound lower bound on the earliest cycle
// at which a bus delivery could reach one CPU, computed from machine state
// at the moment the CPU fetches its next reference. The front end
// (internal/proc/fasthits.go) resolves cache hits in the workload
// goroutine only at virtual cycles at or below this bound; everything
// later takes the ordinary lock-step handshake. The bound is tiered: each
// tier spends more analysis to widen the window when more of the machine
// is provably quiet:
//
//	tier 1    bus state only: a fresh grant needs BusArbCycles+BusCmdCycles
//	          after the bus frees (an in-flight transfer addressed to this
//	          CPU caps the window at its completion). Used whenever our own
//	          bus has queued or in-flight transfers, or a station
//	          controller acts this very cycle.
//	tier 2    station quiet (bus quiet, memory/NC/RI stage strictly in the
//	          future): the minimum over every threat chain's floor — a
//	          sibling CPU's fresh or queued request (two grants plus a
//	          directory pass), a staging controller's output (its NextWork
//	          plus a grant), and a ring-borne arrival (land, forward, and
//	          win a grant; an injection and slot hop further out when the
//	          local ring is provably empty).
//	tier 2.5  no packet in transit anywhere (no pool running — the check
//	          reads cross-station state, which a phase-1 worker must not):
//	          ring-borne threats must start from scratch, so the remote
//	          floor — the cheapest of a busy remote bus handing its RI a
//	          message, a staging remote controller, or a fresh remote CPU
//	          request — replaces the land-this-cycle pessimism.
//	tier 3    no message anywhere (deliveryQuiet; held memory locks are
//	          passive state, not message sources): only CPUs can create
//	          traffic, so the horizon is the earliest other-CPU wake plus
//	          its full threat chain — same-station or cross-ring. With
//	          every other CPU finished the horizon is unbounded and the
//	          workload free-runs through its remaining hits.
//
// Soundness does not depend on which tier fires — each returns a bound no
// later than any actual delivery — and burst boundaries are
// semantics-free: a shorter window only costs extra handshakes, never a
// different result. proc.CPU.assertHitWindow backstops the analysis at
// runtime: a cache-affecting delivery landing before the last
// fast-resolved probe panics instead of silently diverging.
//
// What a horizon call sees depends on the cycle order. The closure runs
// inside its CPU's tick of cycle now. Its own station is in the same state
// under every order — lower-id siblings have ticked now, its bus, memory,
// NC and RI have not — and tiers 1 and 2 read nothing else but the local
// ring, which no order ticks before phase 2. Tiers 2.5 and 3 read the
// whole machine, and the gated cycle is station-major: the CPUs, bus,
// memory and NC of every lower-numbered station have already ticked cycle
// now (no RI or ring has). That is still a state on the one timeline all
// orders share — the simulation is bit-identical — and each term of the
// two tiers bounds that timeline from whatever point the state was read:
//
//   - a message a lower station's bus handed its RI this cycle makes that
//     RI non-idle, so neither tier fires;
//   - a transfer that bus granted this cycle leaves it busy: tier 3 does
//     not fire, tier 2.5 charges injChain from now, and the hand-over to
//     the RI is at now or later;
//   - a response a lower station's memory or NC queued this cycle sits in
//     its out-queue (controller not idle, bus not Quiet: same outcome); one
//     still staging is charged ctrlChain from its NextWork, which after
//     its tick is no earlier than before it;
//   - a request a lower-id CPU pushed this cycle is charged from now (the
//     flat CPU-request term of tier 2.5; a live HorizonWake reporting
//     needs-delivery in tier 3), however far its station has carried it.
//
// Later state can only drop terms whose work has finished or push them
// out, never lose a message: every message is always in some queue, bus,
// controller or ring that the two predicates scan.

import (
	"numachine/internal/proc"
	"numachine/internal/sim"
)

// hitHorizonFor builds the per-CPU horizon closure wired into
// proc.CPU.Horizon by Load when Config.FastHits is set. With a pool
// running it reads only station-local state (the CPU's own shard) plus
// phase-2-owned RI/ring state that is stable during phase 1.
func (m *Machine) hitHorizonFor(c *proc.CPU) func(now int64) int64 {
	s := c.Station
	b, mem, nc, ri := m.Buses[s], m.Mems[s], m.NCs[s], m.RIs[s]
	lr := m.Locals[m.g.RingOf(s)]
	arbcmd := int64(m.p.BusArbCycles + m.p.BusCmdCycles)
	hop := int64(m.p.RingHopCycles)
	local := c.Local
	// Every cache-affecting delivery a CPU can provoke passes through a
	// memory or network-cache controller, and each stages its input for at
	// least the SRAM directory/tag pass before pushing anything back out.
	minStage := int64(min(m.p.MemDirCycles, m.p.NCDirCycles))
	// A threat from a same-station CPU (fresh reference or already-queued
	// request): request grant, the controller's staging floor, then the
	// threat grant — two transfers plus a directory pass.
	localThreat := 2*arbcmd + minStage
	// A threat that starts on another station additionally crosses the
	// ring at least once: a third bus grant plus packetization, one slot
	// hop, and the arrival-to-RI-tick cycle. (The true paths — a remote
	// request reaching this station's controllers, or a remote home
	// multicasting invalidations back — are both at least this long.)
	remoteThreat := arbcmd + minStage + ctrlChain(m.p)
	// Cap bursts at half the watchdog window: hit references complete (and
	// count) at burst-resolution time, so an uncapped burst followed by a
	// multi-million-cycle Pre burn would look like no progress to the
	// deadlock monitor even though the workload is merely far ahead.
	maxBurst := m.p.DeadlockCycles / 2
	cap := func(now, d int64) int64 {
		if maxBurst > 0 && d > now+maxBurst {
			return now + maxBurst
		}
		return d
	}
	return func(now int64) int64 {
		d := b.HitHorizon(local, now)
		if d <= now {
			return d
		}
		// Tier 1: transfers queued or in flight on our own bus keep the
		// bus-only bound (it already accounts for queued grants).
		if !b.Quiet(now) {
			return d
		}
		memW, ncW, riW := mem.NextWork(now), nc.NextWork(now), ri.NextWork(now)
		if memW <= now || ncW <= now || riW <= now {
			// A station controller acts this very cycle; its push is
			// covered only by the bus floor.
			return d
		}
		if m.pool == nil && m.quiescedThisCycle() {
			// Tier 3: no message anywhere — only CPUs can initiate traffic,
			// and a CPU's first push goes to memory/NC/RI, never directly to
			// another processor's cache, so every threat pays the two- or
			// three-transfer path above from its initiator's wake-up.
			deep := sim.Never
			for i, o := range m.CPUs {
				if o == c || !m.liveCPU[i] {
					continue
				}
				w, needsDelivery := o.HorizonWake(now)
				if needsDelivery {
					w = now // a request pushed earlier this cycle; stay sound
				}
				if w == sim.Never {
					continue
				}
				if w < now {
					w = now
				}
				t := localThreat
				if o.Station != s {
					t = remoteThreat
				}
				if w+t < deep {
					deep = w + t
				}
			}
			return cap(now, deep)
		}
		// Tier 2: the station is quiet apart from controllers that are
		// still staging. Combine every threat chain's floor:
		//   - a sibling's fresh or queued request needs two grants and a
		//     directory pass (localThreat);
		//   - a staging controller's output needs its staging floor plus a
		//     grant;
		//   - a ring-borne arrival needs to land, be forwarded by the RI
		//     next cycle, and win a grant — and if the local ring is
		//     provably empty the nearest flit is at least an injection and
		//     one slot hop away.
		deep := now + localThreat
		if memW != sim.Never && memW+arbcmd < deep {
			deep = memW + arbcmd
		}
		if ncW != sim.Never && ncW+arbcmd < deep {
			deep = ncW + arbcmd
		}
		if riW != sim.Never && riW+arbcmd < deep {
			deep = riW + arbcmd
		}
		if m.pool == nil {
			// Tier 2.5 (no pool running — reads cross-station state): if
			// no packet is in transit anywhere, ring-borne threats must
			// start from scratch and the remote floor replaces the
			// land-this-cycle pessimism.
			if rf, ok := m.remoteTransitFloor(); ok {
				if rf < deep {
					deep = rf
				}
				return cap(now, deep)
			}
		}
		ringAt := now + 1
		if lr.Drained() {
			ringAt = now + hop + 1
		}
		if ringAt+arbcmd < deep {
			deep = ringAt + arbcmd
		}
		return cap(now, deep)
	}
}

// injChain is the minimum delay from a message sitting granted-but-undel-
// ivered at some station's bus to a delivery on another station's bus:
// packetization at the source RI, at least one slot hop, the
// arrival-to-RI-forward cycle, and the destination grant.
func injChain(p sim.Params) int64 {
	return int64(p.RIPackCycles+p.RingHopCycles+1) + int64(p.BusArbCycles+p.BusCmdCycles)
}

// ctrlChain is the minimum delay from a controller push at any station to
// a delivery on another station's bus: the source grant plus injChain.
func ctrlChain(p sim.Params) int64 {
	return int64(p.BusArbCycles+p.BusCmdCycles) + injChain(p)
}

// remoteTransitFloor reports (floor, true) when no packet is in transit
// anywhere (transitQuiet), in which case floor is a sound lower bound on the
// earliest cycle a ring-borne delivery could complete at any station's
// bus: a busy remote bus may hand its RI a message this cycle (injChain),
// a staging controller pushes no earlier than its NextWork (ctrlChain),
// and a fresh or already-queued remote CPU request additionally pays a
// directory pass before anything threatening comes back. Memoized per
// cycle. The memo stays sound for the rest of the cycle although, in the
// station-major gated cycle, lower stations' buses and controllers tick
// between the CPU that took it and a later station's CPU that reuses it:
// the floor bounds every delivery that evolves from the state it was taken
// in, those ticks are part of that evolution, and the only work not
// derived from that state is a request a CPU pushes at or after now,
// which the flat CPU-request term already covers. Never called with a
// pool running.
func (m *Machine) remoteTransitFloor() (int64, bool) {
	if m.transitAt == m.now {
		return m.transitFloor, m.transitOK
	}
	now := m.now
	m.transitAt = now
	m.transitOK = m.transitQuiet()
	if !m.transitOK {
		return 0, false
	}
	arbcmd := int64(m.p.BusArbCycles + m.p.BusCmdCycles)
	minStage := int64(min(m.p.MemDirCycles, m.p.NCDirCycles))
	cc := ctrlChain(m.p)
	// Fresh or queued CPU requests: grant, directory pass, then the
	// cross-ring controller chain.
	floor := now + arbcmd + minStage + cc
	for _, b := range m.Buses {
		if !b.Quiet(now) {
			if f := now + injChain(m.p); f < floor {
				floor = f
			}
			break
		}
	}
	for s := range m.Mems {
		w := m.Mems[s].NextWork(now)
		if x := m.NCs[s].NextWork(now); x < w {
			w = x
		}
		if w == sim.Never {
			continue
		}
		if w < now {
			w = now
		}
		if w+cc < floor {
			floor = w + cc
		}
	}
	m.transitFloor = floor
	return floor, true
}
