package bus

import (
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// Out is the send side of a station bus module: the output FIFO the
// arbiter drains and the pool its messages come from. Every module on the
// bus embeds one — the processors, the ring interface, and through Port
// the memory module and the network cache — and a directory controller
// addresses what it sends through the builders below, so this file alone
// decides which fields a message to a processor, to a station or to every
// local copy carries.
type Out struct {
	outQ sim.Queue[*msg.Message]

	// Msgs recycles consumed and constructed messages (wired by
	// core, shared per station). See msg.Pool for the ownership discipline.
	Msgs *msg.Pool[msg.Message]

	// Station is the sender's station; mod is its bus module index and ri
	// that of its station's ring interface (set by Addr). Local processor
	// i is bus module i (topo.Geometry.ModProc).
	Station int
	mod, ri int32
}

// Addr records the sender: bus module mod of station.
func (o *Out) Addr(g topo.Geometry, station, mod int) {
	o.Station, o.mod, o.ri = station, int32(mod), int32(g.ModRI())
}

// BusOut implements Module.
func (o *Out) BusOut() *sim.Queue[*msg.Message] { return &o.outQ }

// Send queues a pooled copy of x for the bus and returns it, so the caller
// may still fill in fields before the arbiter takes it.
func (o *Out) Send(x msg.Message) *msg.Message {
	out := o.Msgs.Get()
	*out = x
	o.outQ.Push(out)
	return out
}

// ToProc queues t for local processor proc, carrying data; home stamps
// the message's Home.
func (o *Out) ToProc(t msg.Type, line uint64, home, proc int, data uint64) *msg.Message {
	return o.Send(msg.Message{
		Type: t, Line: line, Home: home,
		SrcMod: int(o.mod), DstMod: proc,
		SrcStation: o.Station, DstStation: o.Station,
		Data: data,
	})
}

// ToStation queues t for station dst through the ring interface (dst -1:
// a multicast the caller addresses by Mask).
func (o *Out) ToStation(t msg.Type, line uint64, home, dst int) *msg.Message {
	return o.Send(msg.Message{
		Type: t, Line: line, Home: home,
		SrcMod: int(o.mod), DstMod: int(o.ri),
		SrcStation: o.Station, DstStation: dst,
	})
}

// BusInval queues an invalidation of the local copies named in procs, and
// nothing when procs is empty.
func (o *Out) BusInval(line uint64, home int, procs uint16) {
	if procs == 0 {
		return
	}
	o.Send(msg.Message{
		Type: msg.BusInval, Line: line, Home: home,
		SrcMod: int(o.mod), DstMod: 0, BusProcs: procs,
		SrcStation: o.Station, DstStation: o.Station,
	})
}

// BusInterv queues an intervention asking the processors named in procs
// (addressed to local processor dst) for their dirty copy; ex makes it an
// ownership transfer, and alsoProc, when >= 0, snarfs the response off the
// bus.
func (o *Out) BusInterv(line uint64, home, dst int, procs uint16, alsoProc int, ex bool) {
	o.Send(msg.Message{
		Type: msg.BusIntervention, Line: line, Home: home,
		SrcMod: int(o.mod), DstMod: dst,
		BusProcs: procs, AlsoProc: alsoProc, Ex: ex,
		SrcStation: o.Station, DstStation: o.Station,
	})
}
