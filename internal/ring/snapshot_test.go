package ring

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/snap"
	"numachine/internal/topo"
)

// TestIRIEncode pins the inter-ring interface's state encoding: it holds
// both FIFOs, and a packet's ReadyAt is encoded relative to the snapshot
// cycle, so equal states reached at different cycles encode equal.
func TestIRIEncode(t *testing.T) {
	p := sim.DefaultParams()
	p.IRICycles = 4 // a ReadyAt in the future, so an absolute one would show
	credits := NewCredits(4, p.MaxNonsinkable)
	encode := func(now int64, push func(i *IRI, now int64)) string {
		i := new(IRI)
		i.Init(&p, 0, credits)
		if push != nil {
			push(i, now)
		}
		e := snap.New(now)
		i.Encode(e)
		return e.String()
	}
	// An ascending packet is switched into the up FIFO.
	up := func(i *IRI, now int64) {
		pkt := msg.Packet{
			Msg:  &msg.Message{Type: msg.NetData, Line: 0x40, SrcStation: 0, DstStation: 3},
			Mask: topo.RoutingMask{Rings: 1 << 1, Stations: 1},
		}
		i.localSlot(&pkt, now)
	}
	// An unsequenced invalidation at its top level is absorbed into the
	// down FIFO.
	down := func(i *IRI, now int64) {
		pkt := msg.Packet{
			Msg:  &msg.Message{Type: msg.Invalidate, Line: 0x40, SrcStation: 0, DstStation: -1},
			Mask: topo.RoutingMask{Stations: 3},
		}
		i.localSlot(&pkt, now)
	}

	if a, b := encode(100, up), encode(5_000, up); a != b {
		t.Errorf("one packet pushed at cycles 100 and 5000 encodes differently:\n%q\n%q", a, b)
	}
	empty := encode(100, nil)
	if encode(100, up) == empty {
		t.Error("an IRI with a packet in its up FIFO encodes like an empty one")
	}
	if encode(100, down) == empty {
		t.Error("an IRI with a packet in its down FIFO encodes like an empty one")
	}
	if encode(100, up) == encode(100, down) {
		t.Error("a packet in the up FIFO encodes like the same packet in the down FIFO")
	}
}
