package bus

import (
	"numachine/internal/msg"
	"numachine/internal/snap"
)

// Encode appends the bus's behaviorally relevant state to a canonical
// encoding (see internal/snap): the arbitration pointer, the transfer in
// flight and when it completes. Utilization accounting is excluded. Module
// output queues are encoded by the modules themselves.
func (b *Bus) Encode(e *snap.Enc) {
	e.Time(b.busyUntil)
	b.inFlight.Encode(e)
	e.Int(b.rr)
}

// Encode appends the port's state: when the current access ends, the
// message under access and both FIFOs in order.
func (p *Port) Encode(e *snap.Enc) {
	e.Time(p.busy)
	p.staged.Encode(e)
	e.Int(p.inQ.Len())
	p.inQ.Each(func(x *msg.Message) { x.Encode(e) })
	e.Int(p.outQ.Len())
	p.outQ.Each(func(x *msg.Message) { x.Encode(e) })
}
