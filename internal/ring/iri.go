package ring

import (
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/trace"
)

// IRI is an inter-ring interface (§3.1.3): a simple switch between a local
// ring and the central ring, made of one FIFO per direction. Ascending
// packets are pulled off the local ring into the up FIFO and injected into
// free central-ring slots; descending packets are copied off the central
// ring (one copy per marked ring, clearing the rings field) into the down
// FIFO and injected into free local-ring slots.
type IRI struct {
	RingID int // the local ring this interface serves

	p       *sim.Params // the machine's, shared by every component; read-only
	credits *Credits
	upQ     sim.Queue[msg.Packet]
	downQ   sim.Queue[msg.Packet]

	// Births is every station's message pool, by station id (wired by
	// core). A packet death here that leaves no packet aliasing
	// its message — possible only for a fault-dropped request — returns
	// the message to Births[SrcStation], the pool that built it.
	Births []*msg.Pool[msg.Message]

	// UpDelay feeds Figure 18b (average delay in the upward path of the
	// central ring interface).
	UpDelay   monitor.Sampler
	DownDelay monitor.Sampler

	// Fault, when non-nil, loses droppable request packets as they switch
	// between ring levels; the packet's flow-control credit is returned so
	// the drop cannot wedge the sender's nonsinkable budget. Drops counts
	// the injected losses.
	Fault *fault.Comp
	Drops int64

	// Tr is the structured-event trace sink (nil when tracing is off).
	// Switch events fire only on pushes into the up/down FIFOs, which
	// require an occupied slot on the feeding ring — an edge every cycle
	// loop ticks — so traces stay loop-invariant.
	Tr *trace.Sink
}

// Init builds the interface for local ring ringID in place, in a zero
// IRI. credits is the station flow-control accounting; the IRI needs it
// to return the credit of a packet the fault injector loses. p is read,
// never written.
//
// The FIFOs are unbounded: the paper sizes them so they never fill ("in
// simulations of our prototype machine these buffers never contain more
// than 60 packets"), and a bounded IRI buffer feeding a halted ring can
// close a circular stall, so an IRI never halts a ring and the model
// reports the FIFOs' observed depths instead (UpStats, DownStats).
func (i *IRI) Init(p *sim.Params, ringID int, credits *Credits) {
	i.p, i.RingID, i.credits = p, ringID, credits
}

// UpStats and DownStats expose queue statistics.
func (i *IRI) UpStats() sim.QueueStats   { return i.upQ.Stats() }
func (i *IRI) DownStats() sim.QueueStats { return i.downQ.Stats() }

// Idle reports whether both FIFOs are empty.
func (i *IRI) Idle() bool { return i.upQ.Empty() && i.downQ.Empty() }

// UpReadyAt reports when the IRI could next place a packet into a free
// central-ring slot: the ReadyAt of the up FIFO's head (sim.Never when the
// FIFO is empty).
func (i *IRI) UpReadyAt() int64 { return readyAt(&i.upQ) }

// DownReadyAt reports when the IRI could next place a packet into a free
// local-ring slot: the ReadyAt of the down FIFO's head (sim.Never when the
// FIFO is empty).
func (i *IRI) DownReadyAt() int64 { return readyAt(&i.downQ) }

func readyAt(q *sim.Queue[msg.Packet]) int64 {
	if pk, ok := q.Peek(); ok {
		return pk.ReadyAt
	}
	return sim.Never
}

// localSlot is the IRI's member of its local ring, editing its slot in
// place: it switches ascending packets into the up FIFO, absorbs
// unsequenced invalidations at their top level, and injects the down
// FIFO's head into a free slot.
func (i *IRI) localSlot(pkt *msg.Packet, now int64) {
	if pkt.Msg == nil {
		if pk, ok := i.downQ.Peek(); ok && pk.ReadyAt <= now {
			i.downQ.Pop()
			i.DownDelay.Sample(now - pk.EnqueuedAt)
			*pkt = pk
		}
		return
	}
	if pkt.Mask.Rings != 0 {
		// Ascending packet: ring interfaces to higher-level rings always
		// switch these up (§2.2).
		//
		// Drop fault: the request is lost in the switch. The draw
		// happens only for droppable types on an occupied-slot
		// edge, which every cycle loop ticks.
		if pkt.Msg.Type.Droppable() && i.Fault.Drop() {
			i.Drops++
			i.Tr.Emit(now, trace.KindFaultDrop, pkt.Msg.Line, pkt.Msg.TxnID,
				int32(pkt.Msg.Type), 1)
			i.lose(pkt)
			return
		}
		pkt.ReadyAt = now + int64(i.p.IRICycles)
		i.upQ.Push(*pkt)
		i.Tr.Emit(now, trace.KindFlitSwitch, pkt.Msg.Line, pkt.Msg.TxnID,
			0, int32(pkt.Msg.Type))
		*pkt = msg.Packet{}
		return
	}
	if !pkt.Sequenced {
		// This ring is the packet's highest level: the IRI is its
		// sequencing point (§2.3). Absorb the invalidation into the
		// ordering queue and re-inject it sequenced.
		pkt.Sequenced = true
		pkt.ReadyAt = now + int64(i.p.IRICycles)
		pkt.EnqueuedAt = now
		i.downQ.Push(*pkt)
		i.Tr.Emit(now, trace.KindFlitSwitch, pkt.Msg.Line, pkt.Msg.TxnID,
			1, int32(pkt.Msg.Type))
		*pkt = msg.Packet{}
	}
}

// centralSlot is the IRI's member of the central ring, editing its slot
// in place: it copies packets bound for its local ring into the down FIFO
// and injects the up FIFO's head into a free slot.
func (i *IRI) centralSlot(pkt *msg.Packet, now int64) {
	if pkt.Msg == nil {
		if pk, ok := i.upQ.Peek(); ok && pk.ReadyAt <= now {
			i.upQ.Pop()
			i.UpDelay.Sample(now - pk.EnqueuedAt)
			*pkt = pk
		}
		return
	}
	bit := uint16(1) << uint(i.RingID)
	if pkt.Mask.Rings&bit == 0 || !pkt.Sequenced {
		return
	}
	// Drop fault: the descending copy is lost. Droppable requests are
	// unicast, so clearing this ring's bit normally consumes the packet and
	// frees its credit.
	if pkt.Msg.Type.Droppable() && i.Fault.Drop() {
		i.Drops++
		i.Tr.Emit(now, trace.KindFaultDrop, pkt.Msg.Line, pkt.Msg.TxnID,
			int32(pkt.Msg.Type), 2)
		pkt.Mask.Rings &^= bit
		if pkt.Mask.Rings == 0 {
			i.lose(pkt)
		}
		return
	}
	// Copy the packet downward, clearing the higher-level field.
	cp := *pkt
	cp.Msg.AddRef() // the descend copy aliases the message too
	cp.Mask.Rings = 0
	cp.ReadyAt = now + int64(i.p.IRICycles)
	cp.EnqueuedAt = now
	i.downQ.Push(cp)
	i.Tr.Emit(now, trace.KindFlitSwitch, cp.Msg.Line, cp.Msg.TxnID,
		1, int32(cp.Msg.Type))
	pkt.Mask.Rings &^= bit
	if pkt.Mask.Rings == 0 {
		// Fully copied: the descend copies hold references, so this
		// release cannot be the last.
		release(i.Births, pkt.Msg)
		*pkt = msg.Packet{}
	}
}

// lose ends a fault-dropped packet whose last copy dies here: its
// flow-control credit goes back, its message reference dies, and its slot
// is freed.
func (i *IRI) lose(pkt *msg.Packet) {
	i.credits.Release(pkt.Msg.SrcStation)
	release(i.Births, pkt.Msg)
	*pkt = msg.Packet{}
}
