package msg

import "numachine/internal/snap"

// Encode appends the message's behaviorally relevant fields to a canonical
// state encoding (see internal/snap). TxnID is renamed by the encoder so
// encodings are independent of transaction-id history. The encoder's
// pointer-instance id ties together every appearance of this message
// (queued copies, packets in flight, reassembly entries).
func (m *Message) Encode(e *snap.Enc) {
	if m == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Ref(m)
	e.Byte(byte(m.Type))
	e.U64(m.Line)
	e.Int(m.Home)
	e.Int(m.SrcMod)
	e.Int(m.DstMod)
	e.U16(m.BusProcs)
	e.Int(m.AlsoProc)
	e.Int(m.SrcStation)
	e.Int(m.DstStation)
	e.U16(m.Mask.Rings)
	e.U16(m.Mask.Stations)
	e.Int(m.Requester)
	e.Int(m.ReqStation)
	e.U64(m.Data)
	e.Txn(m.TxnID)
	e.Byte(byte(m.NakOf))
	e.Bool(m.Retry)
	e.Bool(m.Ex)
	e.Bool(m.InvalFollows)
}

// Encode appends the packet's state to a canonical encoding; an empty
// slot (Msg == nil) encodes as a nil message alone. EnqueuedAt is
// monitoring-only and excluded; ReadyAt is a future deadline and encoded
// relative to the snapshot cycle.
func (p *Packet) Encode(e *snap.Enc) {
	p.Msg.Encode(e)
	if p.Msg == nil {
		return
	}
	e.Int(int(p.Seq))
	e.U16(p.Mask.Rings)
	e.U16(p.Mask.Stations)
	e.Bool(p.Sequenced)
	e.Time(p.ReadyAt)
}
