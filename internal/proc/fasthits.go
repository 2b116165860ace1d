package proc

import (
	"fmt"

	"numachine/internal/cache"
	"numachine/internal/sim"
)

// Front-end hit fast path (core.Config.FastHits).
//
// The lock-step handshake makes every Ctx.Read/Write cost a coroutine
// round trip (two switches) even when the access is an L1/L2 hit that
// completes without touching the memory system. The fast path removes that cost for the
// common case: the workload goroutine resolves cache hits itself, against
// the very tag arrays the timing back end uses, and banks the hit latency
// into the coalesced compute prefix (Ref.Pre) of the next reference that
// genuinely needs the handshake — exactly the mechanism Ctx.Compute
// already uses for compute bursts.
//
// Two things make it sound:
//
//  1. Alternation. The workload is a coroutine of its CPU (iter.Pull): it
//     runs only while the goroutine ticking the CPU is switched out
//     inside Runner.Next, and that goroutine runs only while the workload
//     is parked in Ctx.do — one thread of control that changes stacks.
//     The switch is the happens-before edge in both directions (iter.Pull
//     annotates it for the race detector), also when successive Next
//     calls come from different pool workers, whose own hand-over is the
//     pool's barrier. The workload may therefore read and mutate
//     the CPU's live L1/L2 state with no data race, and nothing —
//     invalidation, intervention, fill — can change that state while a
//     burst of fast hits is being resolved. CI's race steps check it.
//
//  2. The delivery horizon. A hit resolved while the goroutine runs at
//     resume cycle t executes *virtually* at u = t + pending (after the
//     banked costs of earlier fast hits). The naive back end would have
//     probed the cache at cycle u, after every bus delivery up to u-1. So
//     a fast resolution at u is exact only if no delivery can reach this
//     CPU before u. The back end computes a sound lower bound on the
//     earliest possible delivery (CPU.Horizon, wired by core from the
//     station bus state) and publishes it as the burst window; the fast
//     path falls back to the slow handshake as soon as the virtual time
//     would pass it. A runtime guard (CPU.fastGuard) turns any horizon
//     bug into a loud panic: cache-affecting deliveries assert that they
//     do not land before the last fast-resolved probe.
//
// Where a hit run is split into bursts affects only simulator throughput,
// never simulated behaviour: each hit is resolved at its exact virtual
// cycle against the exact cache state, so Results and traces are
// byte-identical with the fast path on or off (the equivalence suite
// enforces this across the test-only reference order and both executors,
// fault schedules included).
// Hits emit no trace events in the slow path either, so traces cannot
// diverge. The only observable difference is when the monitoring counters
// are incremented mid-run (a telemetry sample taken mid-burst may be a few
// references ahead); final counters are identical.
type fastHits struct {
	enabled bool
	cpu     *CPU // whose live caches and counters the front end uses

	// Per-resume window, published by the back end immediately before the
	// workload goroutine resumes.
	resumeAt int64 // cycle of this Runner.Next call
	horizon  int64 // no delivery reaches this CPU strictly before any probe at or below it

	// lastProbe is the virtual cycle of the burst's latest fast-resolved
	// probe (-1 when none); the back end adopts it as the delivery guard.
	lastProbe int64

	// Front-end-only diagnostics (never part of Stats, so Results stay
	// identical with the fast path on or off): references resolved fast,
	// and references that fell back because the window was exhausted
	// (virtual time past the horizon).
	resolved   int64
	missWindow int64
}

// FastHitStats reports the front end's resolution diagnostics:
// fast-resolved references and window-exhausted fallbacks.
func (c *CPU) FastHitStats() (resolved, window int64) {
	if c.runner == nil {
		return
	}
	f := &c.runner.ctx.fast
	return f.resolved, f.missWindow
}

// fastRead resolves a read hit in the workload goroutine. It mirrors the
// hit half of CPU.startRead; anything else (miss, exhausted window) reports
// !ok and takes the slow handshake, which is always safe because the back
// end re-classifies the reference at its real execution cycle.
func (c *Ctx) fastRead(addr uint64) (uint64, bool) {
	f := &c.fast
	u := f.resumeAt + c.pending
	if u > f.horizon {
		f.missWindow++
		return 0, false
	}
	line := f.cpu.l2.Align(addr)
	l := f.cpu.l2.Probe(line)
	if l == nil {
		return 0, false
	}
	f.cpu.Stats.Reads++
	c.pending += f.cpu.hitCost(line)
	f.lastProbe = u
	f.resolved++
	return l.Data, true
}

// fastWrite resolves a write hit to a Dirty line (the only write the slow
// path completes without a bus transaction — Shared copies need an
// upgrade, misses a fetch). Mirrors the Dirty branch of CPU.startWrite.
func (c *Ctx) fastWrite(addr, v uint64) bool {
	f := &c.fast
	u := f.resumeAt + c.pending
	if u > f.horizon {
		f.missWindow++
		return false
	}
	line := f.cpu.l2.Align(addr)
	l := f.cpu.l2.Probe(line)
	if l == nil || l.State != cache.Dirty {
		return false
	}
	f.cpu.Stats.Writes++
	l.Data = v
	c.pending += f.cpu.hitCost(line)
	f.lastProbe = u
	f.resolved++
	return true
}

// ---- back-end (CPU) side ----

// EnableFastHits wires the current runner's Ctx to resolve cache hits in
// the workload goroutine. Must be called after SetRunner; core calls it
// when Config.FastHits is set.
func (c *CPU) EnableFastHits() {
	if c.runner == nil {
		return
	}
	c.runner.ctx.fast = fastHits{enabled: true, cpu: c, lastProbe: -1}
}

// openFastWindow publishes the burst window for the upcoming Next call,
// while the program is parked, and adoptFastGuard turns the burst's last
// probe into the delivery guard.
func (c *CPU) openFastWindow(now int64) {
	f := &c.runner.ctx.fast
	if !f.enabled {
		return
	}
	// now is always sound: a delivery at cycle t lands after the CPU phase of t.
	f.resumeAt, f.horizon, f.lastProbe = now, now, -1
	if c.Horizon != nil {
		f.horizon = c.Horizon(now)
	}
}

func (c *CPU) adoptFastGuard() {
	f := &c.runner.ctx.fast
	if f.enabled && f.lastProbe >= 0 {
		c.fastGuard = f.lastProbe
	}
}

// assertHitWindow panics if a cache-affecting delivery lands before the
// last fast-resolved probe — i.e. if a Horizon implementation ever
// over-promises. It converts a silent divergence into an immediate failure
// in every equivalence and fault-soak run.
func (c *CPU) assertHitWindow(now int64) {
	if now < c.fastGuard {
		panic(fmt.Sprintf(
			"proc[%d]: coherence delivery at cycle %d inside a fast-hit window (last fast probe at %d); the hit horizon was unsound",
			c.GlobalID, now, c.fastGuard))
	}
}

// HorizonWake classifies this CPU for a *sibling's* hit-horizon
// computation: the earliest cycle at which it could push a new bus request
// from its current state. needsDelivery reports that the CPU must first
// receive a bus delivery (memory response, completion interrupt) before it
// can act at all — on a quiet station that first delivery is itself
// bounded by the ring-borne arrival path, so such CPUs impose no tighter
// bound. A parked barrier waiter whose release cycle has come acts in its
// own tick later this cycle, hence its release cycle; any other waiter is
// counted from the next cycle, without reading how far off its release is.
func (c *CPU) HorizonWake(now int64) (wake int64, needsDelivery bool) {
	switch c.st {
	case sThink:
		return c.thinkUntil, false
	case sWaitRetry:
		return c.retryAt, false
	case sWaitBarrier:
		return min(c.thinkUntil, now+1), false
	case sWaitMem, sWaitInterrupt:
		return 0, true
	default: // sDone: can never initiate anything again
		return sim.Never, false
	}
}
