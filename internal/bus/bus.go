// Package bus models the NUMAchine station bus: a single shared,
// arbitrated interconnect joining the processors, the memory module, the
// network cache and the local ring interface of one station. The prototype
// used FutureBus mechanicals with custom control; here the relevant
// behaviour is arbitration latency, command/data occupancy, and the
// single-transaction forwarding used by interventions (one bus transfer
// observed by both the memory/NC and the requesting processor).
//
// Concurrency contract: a Bus and every module it arbitrates are
// station-local. Tick drains only its own station's output queues and
// delivers only to its own station's modules — ring-interface-bound
// messages merely land on the RI's inbound FIFO, which the RI owns — so
// under the station-parallel cycle loop (core.Config.ParallelStations)
// each Bus ticks on its station's phase-1 worker with no cross-station
// state reachable.
package bus

import (
	"math/bits"

	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Module is anything attached to the station bus.
type Module interface {
	// BusOut exposes the module's outgoing queue; the arbiter drains it.
	BusOut() *sim.Queue[*msg.Message]
	// BusDeliver hands the module a message that crossed the bus.
	BusDeliver(m *msg.Message, now int64)
}

// Bus is one station's bus with round-robin arbitration.
type Bus struct {
	g       topo.Geometry
	p       *sim.Params // the machine's, shared by every component; read-only
	modules []Module
	outs    []*sim.Queue[*msg.Message] // cached BusOut queues (hot path)

	busyUntil int64
	inFlight  *msg.Message
	rr        int   // round-robin arbitration pointer
	utilAt    int64 // first cycle not yet accounted in Util

	// Util reproduces the bus utilization measurement of Figure 17.
	Util monitor.Utilization
	// Transfers counts completed bus transactions.
	Transfers int64

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// Msgs recycles messages that die at delivery (wired by
	// core, shared per station). A message's last stop is the bus exactly
	// when its receivers retain nothing: processor deliveries (the CPU
	// copies what it needs) and multicasts. Memory/NC deliveries are
	// retained in the target's input queue and recycled there instead.
	Msgs *msg.Pool[msg.Message]
}

// Init builds the bus for one station in place. modules and outs are its
// module and out-queue tables, g.ModCount() entries each and all nil; p is
// read, never written. Modules must be registered with Attach in
// bus-module-index order before the first Tick.
func (b *Bus) Init(g topo.Geometry, p *sim.Params, modules []Module, outs []*sim.Queue[*msg.Message]) {
	b.g, b.p = g, p
	b.modules, b.outs = modules, outs
}

// Attach registers the module at bus index idx.
func (b *Bus) Attach(idx int, m Module) {
	b.modules[idx] = m
	b.outs[idx] = m.BusOut()
}

// NextWork reports the earliest cycle at or after now at which Tick can do
// more than utilization accounting: the end of the occupying transfer, or
// now when a completed transfer awaits delivery or a module has pending
// output. The gate runs after the CPU phase of the cycle, so same-cycle
// pushes into the out-queues are visible exactly as the naive Tick would
// see them.
func (b *Bus) NextWork(now int64) int64 {
	if now < b.busyUntil {
		return b.busyUntil
	}
	if b.inFlight != nil {
		return now
	}
	for _, q := range b.outs {
		if q != nil && !q.Empty() {
			return now
		}
	}
	return sim.Never
}

// syncUtil accounts Util for every cycle in [utilAt, limit]: a cycle t is
// busy iff t < busyUntil, and busyUntil only moves when the bus actually
// ticks, so the whole gap splits into one busy prefix and an idle tail.
func (b *Bus) syncUtil(limit int64) {
	if b.utilAt > limit {
		return
	}
	b.Util.AddTotal(limit - b.utilAt + 1)
	if busy := min(limit+1, b.busyUntil) - b.utilAt; busy > 0 {
		b.Util.AddBusy(busy)
	}
	b.utilAt = limit + 1
}

// SyncStats brings the utilization counters up to date through limit
// without advancing the bus (called before snapshotting results).
func (b *Bus) SyncStats(limit int64) { b.syncUtil(limit) }

// Tick advances the bus one cycle: finish an in-flight transfer, then
// arbitrate among modules with pending output. It returns the set of bus
// module indices the finished transfer was delivered to (bit i: module i),
// empty on a tick that only arbitrates; BusDeliver is the only way a
// transfer changes a module, so the gated cycle marks exactly these.
func (b *Bus) Tick(now int64) (delivered uint32) {
	b.syncUtil(now)
	if now < b.busyUntil {
		return 0
	}
	if b.inFlight != nil {
		delivered = b.deliver(b.inFlight, now)
		b.inFlight = nil
	}
	// Round-robin arbitration.
	n := len(b.modules)
	for i := 0; i < n; i++ {
		idx := (b.rr + i) % n
		q := b.outs[idx]
		if q == nil || q.Empty() {
			continue
		}
		m, ok := q.Pop()
		if !ok {
			continue
		}
		cost := b.p.BusArbCycles + b.p.BusCmdCycles
		if m.Type.CarriesData() {
			cost += b.p.BusDataCycles
		}
		b.busyUntil = now + int64(cost)
		b.inFlight = m
		b.rr = (idx + 1) % n
		b.Transfers++
		b.Tr.Emit(now, trace.KindBusGrant, m.Line, m.TxnID, int32(m.Type), int32(cost))
		return delivered
	}
	return delivered
}

// reach returns the set of bus modules a transfer of m reaches (bit i:
// module i), the one routing rule deliver and HitHorizon share. A
// network-bound message goes to the ring interface untouched: the
// processor multicasts apply only at the final station. A multicast
// reaches the processors named in BusProcs. An intervention response is a
// single transfer observed by the memory/NC and, when AlsoProc is set, by
// the requesting processor (§2.3: the owner "forwards a copy of the cache
// line to the requesting processor and to the memory"). Anything else
// reaches its DstMod.
func (b *Bus) reach(m *msg.Message) uint32 {
	if m.DstMod == b.g.ModRI() {
		return 1 << uint(m.DstMod)
	}
	switch m.Type {
	case msg.BusInval, msg.BusIntervention, msg.NetInterrupt:
		procs := uint32(m.BusProcs) & (1<<uint(b.g.ProcsPerStation) - 1)
		return procs << uint(b.g.ModProc(0))
	case msg.IntervResp:
		if m.AlsoProc >= 0 && m.AlsoProc < b.g.ProcsPerStation {
			return 1<<uint(b.g.ModProc(m.AlsoProc)) | 1<<uint(m.DstMod)
		}
	}
	return 1 << uint(m.DstMod)
}

// deliver hands a completed transfer to every module it reaches, in
// ascending module index, and returns the set it reached. The message
// dies here when no receiver retains it: processors copy what they need,
// while the memory, the NC and the ring interface queue it (a
// network-borne multicast reaches this bus as the ring interface's private
// reassembly copy, never the packet-aliased original).
func (b *Bus) deliver(m *msg.Message, now int64) (to uint32) {
	b.Tr.Emit(now, trace.KindBusDeliver, m.Line, m.TxnID, int32(m.Type), int32(m.DstMod))
	to = b.reach(m)
	for set := to; set != 0; set &= set - 1 {
		b.modules[bits.TrailingZeros32(set)].BusDeliver(m, now)
	}
	if to>>uint(b.g.ModMem()) == 0 { // processors only
		b.Msgs.Put(m)
	}
	return to
}

// HitHorizon returns a sound lower bound on the earliest cycle at which a
// transfer could be *delivered* to the processor at local index `local`,
// seen from the CPU phase of cycle now (the bus ticks after the CPUs
// within a cycle, so a probe at cycle t precedes any delivery at t):
//
//   - a granted transfer addressed to this processor completes at
//     max(now, busyUntil) — probes up to that cycle are still exact;
//   - any other delivery needs a fresh grant, which cannot complete in
//     fewer than BusArbCycles+BusCmdCycles after the bus frees.
//
// The bound deliberately ignores the out-queues: a message granted at the
// bus phase of cycle t delivers no earlier than t+arb+cmd, so queued (or
// even same-cycle-pushed) messages can never beat the returned horizon.
func (b *Bus) HitHorizon(local int, now int64) int64 {
	arbcmd := int64(b.p.BusArbCycles + b.p.BusCmdCycles)
	free := b.busyUntil
	if free < now {
		free = now
	}
	if b.inFlight != nil && b.reach(b.inFlight)&(1<<uint(b.g.ModProc(local))) != 0 {
		return free
	}
	return free + arbcmd
}

// Busy reports whether a transfer is occupying the bus.
func (b *Bus) Busy(now int64) bool { return now < b.busyUntil }

// Idle reports whether the bus has neither an occupying transfer nor an
// undelivered completed one.
func (b *Bus) Idle(now int64) bool { return !b.Busy(now) && b.inFlight == nil }
