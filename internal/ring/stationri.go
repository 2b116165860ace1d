package ring

import (
	"slices"

	"numachine/internal/bus"
	"numachine/internal/fault"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Credits bounds the number of nonsinkable messages each station may have
// in the network at once (§2.4: up to 16 in the prototype). The bound is
// what makes the sinkable/nonsinkable queueing discipline deadlock-free.
//
// Only station st's own ring interface ever acquires slot st (every
// ring-bound message is injected at its source station), but releases
// happen wherever the message is consumed or dropped — any ring interface
// or IRI. All of them tick in the serial interconnect phase (see the
// package comment), so the counters are plain integers, and the reference
// tick order decides whether an acquire at the cap sees a same-cycle
// release.
type Credits struct {
	max      int32
	inFlight []int32
}

// NewCredits creates the accounting for the given number of stations.
func NewCredits(stations, max int) *Credits {
	return &Credits{max: int32(max), inFlight: make([]int32, stations)}
}

// TryAcquire reserves a slot for a nonsinkable message from station st.
func (c *Credits) TryAcquire(st int) bool {
	if c.max > 0 && c.inFlight[st] >= c.max {
		return false
	}
	c.inFlight[st]++
	return true
}

// Release returns the slot when the message is consumed at its target.
func (c *Credits) Release(st int) {
	c.inFlight[st]--
	if c.inFlight[st] < 0 {
		panic("ring: nonsinkable credit underflow")
	}
}

// InFlight reports station st's outstanding nonsinkable messages.
func (c *Credits) InFlight(st int) int { return int(c.inFlight[st]) }

// StationRI is the local ring interface of one station (Figure 11). On the
// upward path it packetizes bus messages into the sinkable or nonsinkable
// output queue and injects packets into free slots (sinkable first). On
// the downward path it reassembles packets from its input FIFO into
// messages and forwards them onto the station bus.
type StationRI struct {
	g       topo.Geometry
	p       *sim.Params // the machine's, shared by every component; read-only
	pos     int
	credits *Credits

	sinkQ    sim.Queue[msg.Packet]
	nonsinkQ sim.Queue[msg.Packet]
	inFIFO   sim.Queue[msg.Packet]

	reasm      []reassembly // messages whose packets are arriving
	unpackBusy int64

	// Out is the interface's send side toward the station bus, with its
	// Station. Its Msgs pool (wired by core, shared with the
	// station's other components) builds the private copy of every arriving
	// message that the interface hands to its bus, and takes back loopback
	// originals that copy supersedes. The pool is touched from the
	// station's phase-1 worker (BusDeliver) and from the serial phase 2
	// (Tick), which the shard pool's barrier separates.
	bus.Out

	// Births is every station's message pool, by station id (wired by
	// core, shared by every interface). A network original is
	// aliased by its packets (see msg.Message.Release); the packet death
	// that leaves none returns it to Births[SrcStation], the pool that
	// built it.
	Births []*msg.Pool[msg.Message]

	// Figure 18a measurements.
	SendDelay   monitor.Sampler // output-queue wait, upward path
	DownSink    monitor.Sampler // arrival->bus-handoff, sinkable
	DownNonsink monitor.Sampler // arrival->bus-handoff, nonsinkable
	// Delivered counts messages handed to the bus; Injected counts packets
	// placed on the ring.
	Delivered int64
	Injected  int64

	// Fault, when non-nil, injects transient packet faults at this
	// interface: droppable requests vanish at injection time, and
	// dup-safe responses are packetized twice. Drops and Dups count the
	// injected faults.
	Fault *fault.Comp
	Drops int64
	Dups  int64

	// Tr is the structured-event trace sink (nil when tracing is off).
	// BusDeliver emits from the owning station's phase-1 worker; the
	// HandleSlot/Tick emissions come from the serial phase 2 — never both
	// in the same phase, so the sink needs no locking.
	Tr *trace.Sink
}

// Init builds the ring interface for a station in place, in a zero
// StationRI; p is read, never written.
func (r *StationRI) Init(g topo.Geometry, p *sim.Params, station int, credits *Credits) {
	r.g, r.p = g, p
	r.Addr(g, station, g.ModRI())
	r.pos = g.PosOf(station)
	r.credits = credits
	r.inFIFO.Capacity = p.RingInputFIFO
}

// BusDeliver implements bus.Module: a station module handed us a message
// bound for the network. The packet generator splits it into ring packets.
func (r *StationRI) BusDeliver(m *msg.Message, now int64) {
	// Degenerate but legal: a message addressed to this very station loops
	// back locally (single-station machines).
	if m.DstStation == r.Station && m.Type != msg.Invalidate {
		r.route(r.Send(*m))
		r.Msgs.Put(m) // superseded by the private copy
		return
	}
	mask := m.Mask
	multicast := m.Type == msg.Invalidate || m.Type == msg.NetInterrupt
	if !multicast || mask.IsZero() {
		mask = r.g.MaskFor(m.DstStation)
	}
	// A mask confined to this ring is already at its highest level: clear
	// the rings field so the packet travels in descend mode.
	if mask.Rings == 1<<uint(r.g.RingOf(r.Station)) {
		mask.Rings = 0
	}
	n := m.Packets()
	r.Tr.Emit(now, trace.KindFlitEnqueue, m.Line, m.TxnID, int32(m.Type), int32(n))
	q := &r.sinkQ
	if !m.Type.Sinkable() {
		q = &r.nonsinkQ
	}
	// Duplication fault: packetize the whole message twice. The RNG is
	// drawn only for dup-safe types at this real-work event, which every
	// cycle loop executes identically, so faulted runs stay bit-identical.
	copies := 1
	if m.Type.DupSafe() && r.Fault.Dup() {
		copies = 2
		r.Dups++
		r.Tr.Emit(now, trace.KindFaultDup, m.Line, m.TxnID, int32(m.Type), int32(n))
	}
	// Seed the reference count with the packets created below; copies made
	// downstream add their own and the last death anywhere recycles m.
	m.InitRefs(copies * n)
	for c := 0; c < copies; c++ {
		for i := 0; i < n; i++ {
			q.Push(msg.Packet{
				Msg:        m,
				Seq:        uint16(i),
				Mask:       mask,
				Sequenced:  m.Type != msg.Invalidate,
				EnqueuedAt: now,
				ReadyAt:    now + int64(r.p.RIPackCycles),
			})
		}
	}
}

// InputFull reports whether the input FIFO can no longer absorb one packet
// per tick safely, in which case the ring halts (§2.4).
func (r *StationRI) InputFull() bool {
	return r.inFIFO.Capacity > 0 && r.inFIFO.Len() >= r.inFIFO.Capacity-1
}

// HandleSlot is the interface's member of its local ring: each ring tick
// presents it its current slot, which it edits in place (the zero Packet
// is a free slot). It consumes packets addressed to this station and
// injects pending output into free slots.
func (r *StationRI) HandleSlot(pkt *msg.Packet, now int64) {
	if pkt.Msg != nil {
		if pkt.Mask.Rings == 0 && pkt.Mask.Stations&(1<<uint(r.pos)) != 0 && pkt.Sequenced &&
			!r.inFIFO.Full() {
			pkt.Msg.AddRef() // the consume copy aliases the message too
			r.inFIFO.Push(*pkt)
			r.Tr.Emit(now, trace.KindFlitArrive, pkt.Msg.Line, pkt.Msg.TxnID,
				int32(pkt.Msg.Type), int32(pkt.Seq))
			pkt.Mask.Stations &^= 1 << uint(r.pos)
			if pkt.Mask.Stations == 0 {
				// Last destination: free the slot. The copy above holds a
				// reference, so the release cannot be the message's last.
				release(r.Births, pkt.Msg)
				*pkt = msg.Packet{}
			}
		}
		return
	}
	// Free slot: sinkable output has priority (§2.4).
	if pk, ok := r.sinkQ.Peek(); ok && pk.ReadyAt <= now {
		r.sinkQ.Pop()
		r.inject(pkt, pk, now)
		return
	}
	if pk, ok := r.nonsinkQ.Peek(); ok && pk.ReadyAt <= now {
		// Nonsinkable messages are single packets; each consumes a credit.
		if r.credits.TryAcquire(pk.Msg.SrcStation) {
			r.nonsinkQ.Pop()
			// Drop fault: the request vanishes at injection time. The
			// credit goes back (the message never enters the network) and
			// the sender's loss timeout recovers the transaction. The RNG
			// is drawn only for droppable types at this injection event,
			// which every cycle loop reaches identically.
			if pk.Msg.Type.Droppable() && r.Fault.Drop() {
				r.credits.Release(pk.Msg.SrcStation)
				r.Drops++
				r.Tr.Emit(now, trace.KindFaultDrop, pk.Msg.Line, pk.Msg.TxnID,
					int32(pk.Msg.Type), 0)
				release(r.Births, pk.Msg)
				return
			}
			r.inject(pkt, pk, now)
		}
	}
}

// inject places output packet pk into the free slot.
func (r *StationRI) inject(slot *msg.Packet, pk msg.Packet, now int64) {
	r.SendDelay.Sample(now - pk.EnqueuedAt)
	r.Injected++
	r.Tr.Emit(now, trace.KindFlitInject, pk.Msg.Line, pk.Msg.TxnID,
		int32(pk.Msg.Type), int32(pk.Seq))
	*slot = pk
}

// NextWork reports the earliest cycle at or after now at which Tick has
// work: the end of the current unpack latency when packets are buffered, or
// now. An empty input FIFO only refills through the ring phase, which the
// gate for the following cycle will see.
func (r *StationRI) NextWork(now int64) int64 {
	if r.inFIFO.Empty() {
		return sim.Never
	}
	if now < r.unpackBusy {
		return r.unpackBusy
	}
	return now
}

// NextInject reports the earliest cycle at which a queued output packet
// becomes ready for a free slot (sim.Never when none is queued). A
// credit-blocked nonsinkable head still reports its ReadyAt — waking the
// ring for a tick that injects nothing is harmless (the reference order
// ticks it every edge regardless), only missing work would not be.
func (r *StationRI) NextInject() int64 {
	return min(readyAt(&r.sinkQ), readyAt(&r.nonsinkQ))
}

// InFIFODepth returns the current input-FIFO depth (diagnostics).
func (r *StationRI) InFIFODepth() int { return r.inFIFO.Len() }

// Tick drains the input FIFO through the packet handler, reassembling
// messages and handing completed ones to the station bus.
func (r *StationRI) Tick(now int64) {
	for now >= r.unpackBusy {
		pkt, ok := r.inFIFO.Pop()
		if !ok {
			return
		}
		m := pkt.Msg
		k := 0
		for k < len(r.reasm) && r.reasm[k].m != m {
			k++
		}
		if k == len(r.reasm) {
			r.reasm = append(r.reasm, reassembly{m: m, first: pkt.EnqueuedAt})
		}
		r.reasm[k].count++
		if r.reasm[k].count < m.Packets() {
			// Mid-chain packet: the chain's remaining packets hold further
			// references, so this release cannot recycle m while reasm
			// still holds it.
			release(r.Births, m)
			continue
		}
		// Message complete: deliver a private copy to the bus.
		first := r.reasm[k].first
		r.reasm = slices.Delete(r.reasm, k, k+1)
		r.route(r.Send(*m))
		if m.Type.Sinkable() {
			r.DownSink.Sample(now - first)
		} else {
			r.DownNonsink.Sample(now - first)
		}
		if !m.Type.Sinkable() {
			r.credits.Release(m.SrcStation)
		}
		r.Delivered++
		r.Tr.Emit(now, trace.KindFlitDeliver, m.Line, m.TxnID,
			int32(m.Type), int32(now-first))
		r.unpackBusy = now + int64(r.p.RIUnpackCycles)
		// The bus sees only the private copy above, so the original dies
		// with its packets: release this one's reference last (Put zeroes m,
		// so every read of m above must precede this); it goes home when no
		// packet anywhere — another station's consume copies, a duplicate
		// fault chain, an IRI descend copy — still aliases it.
		release(r.Births, m)
	}
}

// release records the death of one packet of m. The death that leaves no
// packet aliasing m owns it and returns it to births[m.SrcStation], the
// pool of the station that built it (see msg.Pool).
func release(births []*msg.Pool[msg.Message], m *msg.Message) {
	if m.Release() {
		births[m.SrcStation].Put(m)
	}
}

// reassembly is one message whose packets are arriving: how many have
// arrived, and the first one's EnqueuedAt, which the Figure 18a downward
// delays are measured from.
type reassembly struct {
	m     *msg.Message
	count int
	first int64
}

// route assigns the station-bus destination of an incoming network
// message: memory-directed traffic has this station as home, everything
// else concerns the network cache, and interrupt writes go to processors.
func (r *StationRI) route(m *msg.Message) {
	switch m.Type {
	case msg.NetInterrupt:
		if m.BusProcs == 0 {
			m.BusProcs = 1<<uint(r.g.ProcsPerStation) - 1
		}
		m.DstMod = r.g.ModProc(0) // fallback target; bus multicast handles fan-out
	default:
		if m.Home == r.Station {
			m.DstMod = r.g.ModMem()
		} else {
			m.DstMod = r.g.ModNC()
		}
	}
	m.SrcMod = r.g.ModRI()
	m.DstStation = r.Station
}

// QueueStats exposes queue statistics for the monitoring reports.
func (r *StationRI) QueueStats() (sendSink, sendNonsink, input sim.QueueStats) {
	return r.sinkQ.Stats(), r.nonsinkQ.Stats(), r.inFIFO.Stats()
}

// Idle reports whether the interface holds no packets or messages.
func (r *StationRI) Idle() bool {
	return r.sinkQ.Empty() && r.nonsinkQ.Empty() && r.inFIFO.Empty() &&
		r.BusOut().Empty() && len(r.reasm) == 0
}
