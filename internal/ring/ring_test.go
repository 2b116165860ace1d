package ring

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

func testParams() sim.Params {
	p := sim.DefaultParams()
	p.RingHopCycles = 1 // advance every cycle for simple step counting
	p.RIPackCycles = 0
	p.RIUnpackCycles = 0
	p.IRICycles = 0
	return p
}

// newStationRIs builds every station's ring interface in place, as core.New
// does: one message pool per station, shared as the births table.
func newStationRIs(g topo.Geometry, p *sim.Params, credits *Credits) []*StationRI {
	births := make([]*msg.Pool[msg.Message], g.Stations())
	ris := make([]*StationRI, g.Stations())
	for s := range ris {
		births[s] = new(msg.Pool[msg.Message])
		ris[s] = new(StationRI)
		ris[s].Init(g, p, s, credits)
		ris[s].Msgs, ris[s].Births = births[s], births
	}
	return ris
}

// buildLocalRing wires S stations on one ring (no hierarchy).
func buildLocalRing(t *testing.T, g topo.Geometry, p sim.Params) ([]*StationRI, *Ring) {
	t.Helper()
	ris := newStationRIs(g, &p, NewCredits(g.Stations(), p.MaxNonsinkable))
	r := new(Ring)
	r.Init(&p, ris, nil, make([]msg.Packet, len(ris)))
	return ris, r
}

func runRing(r *Ring, ris []*StationRI, from, cycles int64) int64 {
	now := from
	for i := int64(0); i < cycles; i++ {
		for _, ri := range ris {
			ri.Tick(now)
		}
		r.Tick(now)
		now++
	}
	return now
}

func TestPointToPointDelivery(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 4, Rings: 1}
	p := testParams()
	ris, r := buildLocalRing(t, g, p)

	m := &msg.Message{
		Type: msg.NetData, Line: 0x1000, Home: 2, // home = destination: memory-bound
		SrcStation: 0, DstStation: 2, Data: 42,
	}
	ris[0].BusDeliver(m, 0)
	runRing(r, ris, 0, 40)

	out, ok := ris[2].BusOut().Pop()
	if !ok {
		t.Fatal("message not delivered to station 2")
	}
	if out.Type != msg.NetData || out.Data != 42 {
		t.Fatalf("delivered %+v", out)
	}
	if out.DstMod != g.ModMem() {
		t.Errorf("NetData for home 0 routed to module %d, want memory", out.DstMod)
	}
	for i, ri := range ris {
		if i != 2 && !ri.BusOut().Empty() {
			t.Errorf("station %d received a stray copy", i)
		}
	}
	if !r.Drained() {
		t.Error("ring still holds packets")
	}
}

func TestDataMessageUsesMultiplePackets(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 4, Rings: 1}
	p := testParams()
	ris, r := buildLocalRing(t, g, p)
	m := &msg.Message{Type: msg.NetData, Home: 1, SrcStation: 0, DstStation: 1}
	ris[0].BusDeliver(m, 0)
	runRing(r, ris, 0, 60)
	if got := ris[0].Injected; got != int64(1+msg.PacketsPerLine) {
		t.Errorf("injected %d packets, want %d", got, 1+msg.PacketsPerLine)
	}
	if ris[1].Delivered != 1 {
		t.Errorf("delivered %d messages, want 1 (reassembled)", ris[1].Delivered)
	}
}

func TestInvalidateMulticastAndSequencing(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 4, Rings: 1}
	p := testParams()
	ris, r := buildLocalRing(t, g, p)

	// Invalidate from station 1 to stations {0, 2} plus itself.
	m := &msg.Message{
		Type: msg.Invalidate, Line: 0x40, Home: 1,
		SrcStation: 1, DstStation: -1,
		Mask: g.MaskForStations(0, 1, 2),
	}
	ris[1].BusDeliver(m, 0)
	runRing(r, ris, 0, 60)

	for _, s := range []int{0, 1, 2} {
		if _, ok := ris[s].BusOut().Pop(); !ok {
			t.Fatalf("station %d missed the invalidation", s)
		}
	}
	if !ris[3].BusOut().Empty() {
		t.Error("station 3 wrongly received the invalidation")
	}

	// A station refuses an invalidation that has not passed its
	// sequencing point (§2.3): the packet stays in the slot and the input
	// FIFO stays empty. The sequenced copy is consumed.
	for _, sequenced := range []bool{false, true} {
		ri := newStationRIs(g, &p, NewCredits(g.Stations(), p.MaxNonsinkable))[2]
		inv := &msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 1, SrcStation: 1, DstStation: -1}
		inv.InitRefs(1)
		pkt := msg.Packet{Msg: inv, Mask: topo.RoutingMask{Stations: 1 << uint(g.PosOf(2))}, Sequenced: sequenced}
		slot := pkt
		ri.HandleSlot(&slot, 0)
		if !sequenced && (slot != pkt || ri.InFIFODepth() != 0) {
			t.Errorf("unsequenced invalidation: slot holds %+v, input FIFO depth %d; want the packet back and 0", slot, ri.InFIFODepth())
		}
		if sequenced && (slot.Msg != nil || ri.InFIFODepth() != 1) {
			t.Errorf("sequenced invalidation: slot holds %+v, input FIFO depth %d; want it free and 1", slot, ri.InFIFODepth())
		}
	}
}

func TestSequencingPointOrdersInvalidateAfterData(t *testing.T) {
	// §2.3: data sent before an invalidation must arrive first, even
	// though the invalidation is a single packet and the data is five.
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 4, Rings: 1}
	p := testParams()
	ris, r := buildLocalRing(t, g, p)

	data := &msg.Message{Type: msg.NetData, Home: 1, SrcStation: 1, DstStation: 3}
	inval := &msg.Message{Type: msg.Invalidate, Home: 1, SrcStation: 1, DstStation: -1,
		Mask: g.MaskForStations(1, 3)}
	ris[1].BusDeliver(data, 0)
	ris[1].BusDeliver(inval, 0)
	var order []msg.Type
	now := int64(0)
	for i := 0; i < 120; i++ {
		for _, ri := range ris {
			ri.Tick(now)
		}
		r.Tick(now)
		if got, ok := ris[3].BusOut().Pop(); ok {
			order = append(order, got.Type)
		}
		now++
	}
	if len(order) != 2 || order[0] != msg.NetData || order[1] != msg.Invalidate {
		t.Fatalf("delivery order %v, want [NetData Invalidate]", order)
	}
}

func TestNonsinkableCreditLimit(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 4, Rings: 1}
	p := testParams()
	p.MaxNonsinkable = 2
	ris, r := buildLocalRing(t, g, p)
	// Queue 5 nonsinkable requests; only 2 may be in flight at once, but
	// since station 1 consumes them the rest follow.
	for i := 0; i < 5; i++ {
		ris[0].BusDeliver(&msg.Message{
			Type: msg.RemRead, Line: uint64(i * 64), Home: 1,
			SrcStation: 0, DstStation: 1,
		}, 0)
	}
	runRing(r, ris, 0, 200)
	n := 0
	for {
		if _, ok := ris[1].BusOut().Pop(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("delivered %d nonsinkable messages, want 5", n)
	}
}

func TestTwoLevelHierarchyCrossRing(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	p := testParams()
	credits := NewCredits(g.Stations(), p.MaxNonsinkable)
	ris := newStationRIs(g, &p, credits)
	iris := []*IRI{new(IRI), new(IRI)}
	locals := []*Ring{new(Ring), new(Ring)}
	for ringID, lr := range locals {
		iris[ringID].Init(&p, ringID, credits)
		iris[ringID].Births = ris[0].Births
		lr.Init(&p, ris[2*ringID:2*ringID+2], iris[ringID:ringID+1], make([]msg.Packet, 3))
	}
	central := new(Ring)
	central.Init(&p, nil, iris, make([]msg.Packet, 2))

	// Station 0 (ring 0) sends data to station 3 (ring 1).
	ris[0].BusDeliver(&msg.Message{
		Type: msg.NetData, Home: 3, SrcStation: 0, DstStation: 3,
	}, 0)
	now := int64(0)
	for i := 0; i < 300; i++ {
		for _, ri := range ris {
			ri.Tick(now)
		}
		for _, lr := range locals {
			lr.Tick(now)
		}
		central.Tick(now)
		now++
	}
	if got, ok := ris[3].BusOut().Pop(); !ok || got.Type != msg.NetData {
		t.Fatalf("cross-ring delivery failed (ok=%v)", ok)
	}
	// An invalidation multicast spanning both rings reaches all stations.
	ris[0].BusDeliver(&msg.Message{
		Type: msg.Invalidate, Home: 0, SrcStation: 0, DstStation: -1,
		Mask: g.MaskForStations(0, 1, 2, 3),
	}, now)
	for i := 0; i < 400; i++ {
		for _, ri := range ris {
			ri.Tick(now)
		}
		for _, lr := range locals {
			lr.Tick(now)
		}
		central.Tick(now)
		now++
	}
	for s, ri := range ris {
		if got, ok := ri.BusOut().Pop(); !ok || got.Type != msg.Invalidate {
			t.Errorf("station %d missed the system-wide invalidation (ok=%v)", s, ok)
		}
	}
}

func TestCreditsAccounting(t *testing.T) {
	c := NewCredits(2, 2)
	if !c.TryAcquire(0) || !c.TryAcquire(0) {
		t.Fatal("acquires under the limit failed")
	}
	if c.TryAcquire(0) {
		t.Error("acquire beyond the limit succeeded")
	}
	if !c.TryAcquire(1) {
		t.Error("stations must have independent credit pools")
	}
	c.Release(0)
	if !c.TryAcquire(0) {
		t.Error("release did not free a credit")
	}
	defer func() {
		if recover() == nil {
			t.Error("credit underflow did not panic")
		}
	}()
	c.Release(1)
	c.Release(1)
}
