package ring

import (
	"slices"
	"sort"

	"numachine/internal/msg"
	"numachine/internal/snap"
)

// This file holds the canonical state encoders the model checker's
// snapshot hooks use (see internal/snap). Statistics, trace sinks and
// reassembly start stamps are excluded everywhere: they cannot affect
// future protocol behavior.

// Encode appends the ring's slot contents in positional order. Slot
// position matters (it determines which node a packet reaches when), so no
// rotation canonicalization is possible or wanted.
func (r *Ring) Encode(e *snap.Enc) {
	for i := range r.slots {
		r.slots[i].Encode(e)
	}
}

// Encode appends the per-station nonsinkable credit counts.
func (c *Credits) Encode(e *snap.Enc) {
	for st := range c.inFlight {
		e.Int(c.InFlight(st))
	}
}

// Encode appends the station ring interface's queues and reassembly state.
// Reassembly entries are in arrival order; they are sorted by a stable
// field tuple (ties broken by count) so the order — and with it the
// encoder's first-appearance pointer renaming — is canonical.
func (r *StationRI) Encode(e *snap.Enc) {
	e.Int(r.BusOut().Len())
	r.BusOut().Each(func(m *msg.Message) { m.Encode(e) })
	e.Int(r.sinkQ.Len())
	r.sinkQ.Each(func(p msg.Packet) { p.Encode(e) })
	e.Int(r.nonsinkQ.Len())
	r.nonsinkQ.Each(func(p msg.Packet) { p.Encode(e) })
	e.Int(r.inFIFO.Len())
	r.inFIFO.Each(func(p msg.Packet) { p.Encode(e) })

	entries := slices.Clone(r.reasm)
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].m, entries[j].m
		switch {
		case a.Type != b.Type:
			return a.Type < b.Type
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.SrcStation != b.SrcStation:
			return a.SrcStation < b.SrcStation
		case a.DstStation != b.DstStation:
			return a.DstStation < b.DstStation
		case a.Requester != b.Requester:
			return a.Requester < b.Requester
		default:
			return entries[i].count < entries[j].count
		}
	})
	e.Int(len(entries))
	for _, en := range entries {
		en.m.Encode(e)
		e.Int(en.count)
	}
	e.Time(r.unpackBusy)
}

// Encode appends the inter-ring interface's queues.
func (ir *IRI) Encode(e *snap.Enc) {
	e.Int(ir.upQ.Len())
	ir.upQ.Each(func(p msg.Packet) { p.Encode(e) })
	e.Int(ir.downQ.Len())
	ir.downQ.Each(func(p msg.Packet) { p.Encode(e) })
}
