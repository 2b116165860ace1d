package core

import (
	"numachine/internal/fault"
	"numachine/internal/snap"
)

// EncodeState appends the whole machine's behaviorally relevant state to a
// canonical encoding (see internal/snap). Components are visited in a
// fixed order — CPUs, buses, memories, NCs, ring interfaces, credits,
// IRIs, local rings, central ring, barrier controller — so the encoder's
// first-appearance renaming of transaction ids and message pointers is
// itself canonical. The model checker uses the resulting bytes as an
// exact visited-state key: two machine states with equal encodings evolve
// identically under equal future choices.
//
// The absolute cycle is excluded (every embedded time is relative) except
// for its phase within the ring-clock period, which determines when the
// next ring edge fires.
func (m *Machine) EncodeState(e *snap.Enc) {
	if hop := int64(m.p.RingHopCycles); hop > 1 {
		e.I64(m.now % hop)
	}
	for _, c := range m.CPUs {
		c.Encode(e)
	}
	for _, b := range m.Buses {
		b.Encode(e)
	}
	for _, mem := range m.Mems {
		mem.Encode(e)
	}
	for _, nc := range m.NCs {
		nc.Encode(e)
	}
	for _, ri := range m.RIs {
		ri.Encode(e)
	}
	m.credits.Encode(e)
	for _, iri := range m.IRIs {
		iri.Encode(e)
	}
	for _, r := range m.Locals {
		r.Encode(e)
	}
	if m.Central != nil {
		m.Central.Encode(e)
	}
	e.Int(len(m.barrier.arrived))
	for _, c := range m.barrier.arrived {
		e.Int(c.GlobalID)
	}
}

// Injector exposes the machine's fault injector (nil in fault-free runs)
// so the model checker can install its choice oracle via SetChooser.
func (m *Machine) Injector() *fault.Injector { return m.inj }
