// Package ring implements the NUMAchine interconnect: unidirectional
// bit-parallel slotted rings arranged in a two-level hierarchy, the local
// ring interfaces that connect stations to their ring, and the inter-ring
// interfaces that switch packets between levels.
//
// Routing follows §2.2 of the paper: a packet whose routing mask names
// rings other than the one it is on ascends; once at the highest level it
// needs, it descends, clearing the higher-level field; station interfaces
// pick off packets whose station bit is set, copying multicasts. The
// unique path property and per-ring sequencing points give the global
// ordering of invalidations that the coherence protocol relies on (§2.3).
//
// A ring's members are concrete: station ring interfaces, and the local or
// central side of an inter-ring interface. Ring, IRI and StationRI are each
// built by one Init that fills a value the caller owns, so a machine builds
// its whole interconnect in place.
//
// Packets are values (§3.1.3: a packet is the contents of a slot): slots
// and FIFOs hold msg.Packet, a member edits its slot in place, and a
// consume or descend copy is an assignment. Only the message a packet
// aliases lives on the heap. Its reference count tracks the packets, and
// the packet death that leaves none returns it to the message pool of its
// SrcStation, the station that built it (see msg.Pool).
//
// Concurrency contract: ring interfaces, rings and IRIs are the
// cross-station layer, so under every cycle loop they tick on one
// goroutine, after the station phase (core.stepGated's phase 2 and tail).
// StationRI.BusDeliver is the one entry point reached from a pooled station
// phase; it touches only the RI's own packetization queues and a message no
// other station can see yet. Everything else crosses stations: HandleSlot
// acquires — and Tick releases — the flow-control credits of the packet's
// *source* station, a packet death returns its message to the source
// station's pool, ring Ticks move slots between members of different
// stations, and the cycle loop reads the wakes that re-arm a ring
// (StationRI.NextInject, IRI.UpReadyAt and DownReadyAt) only at serial
// points. Nothing in this package is synchronized.
package ring

import (
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/trace"
)

// Ring is one slotted ring. Slots advance every Params.RingHopCycles CPU
// cycles; each slot carries at most one packet. Its members are concrete: a
// local ring holds its stations' ring interfaces in position order and, on
// a machine with a central ring, then its IRI, the ring's sequencing point
// (§2.3); the central ring holds one IRI per local ring. Slot i belongs to
// member i in that order.
type Ring struct {
	p     *sim.Params // the machine's, shared by every component; read-only
	ris   []*StationRI
	iris  []*IRI
	slots []msg.Packet // an empty slot holds the zero Packet
	occ   int          // occupied slots (recounted at each tick; slots change nowhere else)

	// edgeAt is the first ring-clock edge not yet accounted in Util. Edges
	// the scheduler skipped were provably empty and unhalted (only this
	// ring's own ticks occupy its slots or fill its members' input buffers),
	// so each contributes one idle observation per member.
	edgeAt int64

	// Util reports the fraction of slot-observations that were occupied —
	// the ring utilization of Figure 17.
	Util monitor.Utilization
	// Stalls counts ring-halt ticks due to flow control.
	Stalls int64

	// Fault, when non-nil, degrades the ring: edges inside the injector's
	// outage windows are halted like flow-control stalls. FaultStalls
	// counts the edges lost to degradation.
	Fault       *fault.Comp
	FaultStalls int64

	// Tr is the structured-event trace sink (nil when tracing is off).
	// Ring events are emitted only from edges every cycle loop ticks —
	// stalls (the halt forces a tick) and non-zero occupancy (occupied
	// slots force a tick) — never from the provably-empty edges the
	// scheduler skips, keeping traces loop-invariant.
	Tr *trace.Sink
}

// Init builds a ring in place, in a zero Ring, over slots, one per member,
// which the caller owns. A local ring has its stations' ris in position
// order and iris empty (single-ring machines) or holding its IRI; a ring
// without ris is the central ring over one IRI per local ring. p is read,
// never written.
func (r *Ring) Init(p *sim.Params, ris []*StationRI, iris []*IRI, slots []msg.Packet) {
	r.p, r.ris, r.iris, r.slots = p, ris, iris, slots
}

// central reports whether this is the central ring.
func (r *Ring) central() bool { return len(r.ris) == 0 }

// hop returns the ring-clock period in CPU cycles (at least 1).
func (r *Ring) hop() int64 {
	if r.p.RingHopCycles > 1 {
		return int64(r.p.RingHopCycles)
	}
	return 1
}

// NextEdge returns the first ring-clock edge at or after t (sim.Never for
// sim.Never).
func (r *Ring) NextEdge(t int64) int64 {
	h := r.hop()
	if rem := t % h; rem != 0 && t != sim.Never {
		t += h - rem
	}
	return t
}

// NextWork reports the earliest ring-clock edge at which Tick can do more
// than rotate empty slots: immediately while packets are in flight or the
// ring is halted (halted edges count flow-control stalls), else the edge
// after some member's pending output becomes injectable.
func (r *Ring) NextWork(now int64) int64 {
	if r.occ > 0 || r.halted() {
		return r.NextEdge(now)
	}
	wake := sim.Never
	for _, ri := range r.ris {
		wake = min(wake, ri.NextInject())
	}
	for _, iri := range r.iris {
		if r.central() {
			wake = min(wake, iri.UpReadyAt())
		} else {
			wake = min(wake, iri.DownReadyAt())
		}
	}
	return r.NextEdge(max(wake, now))
}

// halted reports whether some member's input buffer is close to capacity,
// in which case the whole ring halts (§2.4; the paper halts the feeding
// ring, and with one slot per member this is the same granularity). Only
// station interfaces can fill: the IRI FIFOs are unbounded (see IRI).
func (r *Ring) halted() bool {
	for _, ri := range r.ris {
		if ri.InputFull() {
			return true
		}
	}
	return false
}

// syncUtil accounts the utilization of every edge in [edgeAt, limit]. Only
// edges the scheduler skipped can be pending here, and those were empty
// and unhalted, so each contributes one idle observation per member —
// exactly what the naive per-edge Util loop would have recorded.
func (r *Ring) syncUtil(limit int64) {
	if r.edgeAt > limit {
		return
	}
	k := (limit-r.edgeAt)/r.hop() + 1
	r.Util.AddTotal(k * int64(len(r.slots)))
	r.edgeAt += k * r.hop()
}

// SyncStats brings the utilization counters up to date through limit
// without advancing the ring (called before snapshotting results).
func (r *Ring) SyncStats(limit int64) { r.syncUtil(limit) }

// Tick advances the ring if this cycle is a ring-clock edge and no member's
// input buffer halts it.
func (r *Ring) Tick(now int64) {
	if r.p.RingHopCycles > 1 && now%int64(r.p.RingHopCycles) != 0 {
		return
	}
	r.syncUtil(now - 1)
	r.edgeAt = now + r.hop()
	if r.halted() {
		r.Stalls++
		r.Tr.Emit(now, trace.KindRingStall, 0, 0, int32(r.Occupied()), 0)
		return
	}
	// Degraded-link fault: halt the edge — but only when the edge has work
	// (occupied slots or an injection ready now). The condition is
	// NextWork's wake predicate, so every loop evaluates it on the same set
	// of edges and stall counts and traces stay loop-invariant; a workless
	// edge inside an outage window moves nothing anyway.
	if r.Fault.Stalled(now) && r.NextWork(now) <= now {
		r.FaultStalls++
		r.Tr.Emit(now, trace.KindFaultStall, 0, 0, int32(r.Occupied()), 0)
		return
	}
	// Invalidations become "sequenced" when they pass the sequencing point
	// of the highest ring level they visit. On the central ring and on a
	// single-ring machine that is the member in slot 0, which marks them in
	// its slot: on a local ring only descend-mode packets (Rings field
	// cleared) are at their top level; on the central ring every packet is.
	// On local rings of a hierarchy the IRI absorbs and re-injects them
	// instead, modelling the ordering queue at the connection to the higher
	// level.
	if pkt := &r.slots[0]; pkt.Msg != nil && !pkt.Sequenced &&
		(r.central() || len(r.iris) == 0 && pkt.Mask.Rings == 0) {
		pkt.Sequenced = true
	}
	// Let every member examine and edit its current slot.
	occ := 0
	for i := range r.slots {
		pkt := &r.slots[i]
		if i < len(r.ris) {
			r.ris[i].HandleSlot(pkt, now)
		} else if iri := r.iris[i-len(r.ris)]; r.central() {
			iri.centralSlot(pkt, now)
		} else {
			iri.localSlot(pkt, now)
		}
		if pkt.Msg != nil {
			occ++
		}
		r.Util.Tick(pkt.Msg != nil)
	}
	r.occ = occ
	// Advance: slot i moves to member i+1.
	last := r.slots[len(r.slots)-1]
	copy(r.slots[1:], r.slots[:len(r.slots)-1])
	r.slots[0] = last
	if occ > 0 {
		r.Tr.Emit(now, trace.KindRingOccupancy, 0, 0, int32(occ), 0)
	}
}

// Occupied returns the number of full slots.
func (r *Ring) Occupied() int { return r.occ }

// Drained reports whether the ring carries no packets.
func (r *Ring) Drained() bool { return r.occ == 0 }
