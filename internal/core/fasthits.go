package core

// The fast-hit delivery horizon: a sound lower bound on the earliest cycle
// at which a bus delivery could reach one CPU, computed from machine state
// at the moment the CPU fetches its next reference. The front end
// (internal/proc/fasthits.go) resolves cache hits in the workload
// goroutine only at virtual cycles at or below this bound; everything
// later takes the ordinary lock-step handshake. It is one of two bounds:
//
//	bus floor      bus state only (Bus.HitHorizon): a fresh grant needs
//	               BusArbCycles+BusCmdCycles after the bus frees, and an
//	               in-flight transfer addressed to this CPU caps the window
//	               at its completion. Reads the CPU's own bus, which no
//	               cycle order ticks before the station's CPUs.
//	machine quiet  no message anywhere (deliveryQuiet; held memory locks
//	               are passive state, not message sources) and no pool
//	               round running (parPhase: the scan reads other stations,
//	               which a pool worker must not; the pooled executor's
//	               inline cycles may scan): only CPUs can create traffic,
//	               and a CPU's first push goes to memory/NC/RI, never to
//	               another processor's cache, so the horizon is the
//	               earliest other-CPU wake plus its threat chain —
//	               same-station or cross-ring. With every other CPU
//	               finished only the burst cap bounds it.
//
// The machine-quiet scan reads the whole machine from inside one CPU's tick
// and is memoized per cycle; quiescedThisCycle argues why the bound holds
// from wherever in the (station-major) cycle the state was read.
//
// Burst boundaries are semantics-free: a shorter window only costs extra
// handshakes, never a different result. proc.CPU.assertHitWindow backstops
// the analysis at runtime: a cache-affecting delivery landing before the
// last fast-resolved probe panics instead of silently diverging.

import (
	"numachine/internal/proc"
	"numachine/internal/sim"
)

// hitHorizonFor builds the per-CPU horizon closure wired into
// proc.CPU.Horizon by Load when Config.FastHits is set.
func (m *Machine) hitHorizonFor(c *proc.CPU) func(now int64) int64 {
	s := c.Station
	b := m.Buses[s]
	arbcmd := int64(m.p.BusArbCycles + m.p.BusCmdCycles)
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
	remoteThreat := localThreat + arbcmd + int64(m.p.RIPackCycles+m.p.RingHopCycles+1)
	// Cap bursts at half the watchdog window: hit references complete (and
	// count) at burst-resolution time, so an uncapped burst followed by a
	// multi-million-cycle Pre burn would look like no progress to the
	// deadlock monitor even though the workload is merely far ahead.
	maxBurst := m.p.DeadlockCycles / 2
	return func(now int64) int64 {
		if m.parPhase || !m.quiescedThisCycle() {
			return b.HitHorizon(local, now)
		}
		deep := sim.Never
		for i, o := range m.CPUs {
			if o == c || !m.liveCPU[i] {
				continue
			}
			w, needsDelivery := o.HorizonWake(now)
			if needsDelivery || w < now {
				w = now // a request pushed earlier this cycle; stay sound
			}
			if w == sim.Never {
				continue
			}
			t := localThreat
			if o.Station != s {
				t = remoteThreat
			}
			if w+t < deep {
				deep = w + t
			}
		}
		if maxBurst > 0 && deep > now+maxBurst {
			return now + maxBurst
		}
		return deep
	}
}
