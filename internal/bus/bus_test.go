package bus

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// stubModule records deliveries and exposes an output queue.
type stubModule struct {
	out      sim.Queue[*msg.Message]
	received []*msg.Message
}

func newStub() *stubModule { return &stubModule{} }

func (s *stubModule) BusOut() *sim.Queue[*msg.Message] { return &s.out }
func (s *stubModule) BusDeliver(m *msg.Message, now int64) {
	s.received = append(s.received, m)
}

func build(t *testing.T) (*Bus, []*stubModule, topo.Geometry) {
	t.Helper()
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 1}
	p := sim.DefaultParams()
	b := new(Bus)
	b.Init(g, &p, make([]Module, g.ModCount()), make([]*sim.Queue[*msg.Message], g.ModCount()))
	b.Msgs = new(msg.Pool[msg.Message])
	mods := make([]*stubModule, g.ModCount())
	for i := range mods {
		mods[i] = newStub()
		b.Attach(i, mods[i])
	}
	return b, mods, g
}

func run(b *Bus, from, cycles int64) int64 {
	for i := int64(0); i < cycles; i++ {
		b.Tick(from)
		from++
	}
	return from
}

func TestCommandTransfer(t *testing.T) {
	b, mods, g := build(t)
	mods[0].out.Push(&msg.Message{Type: msg.LocalRead, DstMod: g.ModMem()})
	run(b, 0, 20)
	if len(mods[g.ModMem()].received) != 1 {
		t.Fatal("command not delivered to memory")
	}
}

func TestDataTransferTakesLonger(t *testing.T) {
	b, mods, g := build(t)
	p := sim.DefaultParams()
	cmdCost := int64(p.BusArbCycles + p.BusCmdCycles)
	mods[0].out.Push(&msg.Message{Type: msg.ProcData, DstMod: 1})
	run(b, 0, cmdCost+1)
	if len(mods[1].received) != 0 {
		t.Fatal("data transfer completed in command time")
	}
	run(b, cmdCost+1, int64(p.BusDataCycles)+2)
	if len(mods[1].received) != 1 {
		t.Fatal("data transfer never completed")
	}
	_ = g
}

func TestRoundRobinFairness(t *testing.T) {
	b, mods, g := build(t)
	// Processors 0 and 1 each queue 5 commands; deliveries must interleave.
	for i := 0; i < 5; i++ {
		mods[0].out.Push(&msg.Message{Type: msg.LocalRead, Line: uint64(i), DstMod: g.ModMem()})
		mods[1].out.Push(&msg.Message{Type: msg.LocalRead, Line: 100 + uint64(i), DstMod: g.ModMem()})
	}
	run(b, 0, 200)
	recv := mods[g.ModMem()].received
	if len(recv) != 10 {
		t.Fatalf("delivered %d, want 10", len(recv))
	}
	// With round robin, no source sends twice in a row while the other waits.
	for i := 1; i < len(recv); i++ {
		if recv[i].Line < 100 == (recv[i-1].Line < 100) {
			t.Fatalf("consecutive grants to one module at %d: %v %v", i, recv[i-1].Line, recv[i].Line)
		}
	}
}

func TestBusInvalMulticast(t *testing.T) {
	b, mods, g := build(t)
	mods[g.ModMem()].out.Push(&msg.Message{
		Type: msg.BusInval, DstMod: 0, BusProcs: 0b1010,
	})
	run(b, 0, 20)
	for i := 0; i < 4; i++ {
		want := 0
		if i == 1 || i == 3 {
			want = 1
		}
		if len(mods[i].received) != want {
			t.Errorf("proc %d received %d invalidations, want %d", i, len(mods[i].received), want)
		}
	}
}

func TestIntervRespSnarfing(t *testing.T) {
	b, mods, g := build(t)
	// Owner proc 2 responds; memory is the target, proc 1 snarfs.
	mods[2].out.Push(&msg.Message{
		Type: msg.IntervResp, DstMod: g.ModMem(), AlsoProc: 1, Data: 9,
	})
	run(b, 0, 30)
	if len(mods[g.ModMem()].received) != 1 {
		t.Error("memory missed the intervention response")
	}
	if len(mods[1].received) != 1 {
		t.Error("requester failed to snarf the response off the bus")
	}
	if len(mods[0].received) != 0 {
		t.Error("uninvolved processor observed the response")
	}
}

func TestUtilizationTracksOccupancy(t *testing.T) {
	b, mods, g := build(t)
	mods[0].out.Push(&msg.Message{Type: msg.ProcData, DstMod: g.ModMem()})
	run(b, 0, 100)
	u := b.Util.Value()
	if u <= 0 || u >= 0.5 {
		t.Errorf("utilization %v, want a small positive fraction", u)
	}
	if b.Transfers != 1 {
		t.Errorf("transfers = %d", b.Transfers)
	}
}

func TestIdleAccountsForInFlight(t *testing.T) {
	b, mods, g := build(t)
	mods[0].out.Push(&msg.Message{Type: msg.LocalRead, DstMod: g.ModMem()})
	b.Tick(0) // grabs the message; delivery pends
	if b.Idle(100) {
		t.Error("bus with undelivered in-flight message claims idle")
	}
	run(b, 1, 20)
	if !b.Idle(21) {
		t.Error("drained bus not idle")
	}
}

// TestDeliverySet pins both users of the bus routing rule to one table:
// Tick's return value, which the gated cycle marks exactly (a module a
// transfer reaches but the set omits would keep a stale gate entry and
// lose a tick), and HitHorizon, which must bound a delivery to a processor
// in the set by the end of the transfer in flight (a fast-resolved hit
// past it could miss the delivery).
func TestDeliverySet(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 1}
	mem, nc, ri := g.ModMem(), g.ModNC(), g.ModRI()
	cases := []struct {
		name string
		from int
		m    msg.Message
		want uint32
	}{
		{"unicast to cpu 2", mem, msg.Message{Type: msg.ProcData, DstMod: g.ModProc(2)}, 1 << 2},
		{"inval multicast", mem, msg.Message{Type: msg.BusInval, DstMod: 0, BusProcs: 0b0101}, 1<<0 | 1<<2},
		{"interv resp to mem, cpu 1 snarfs", 3, msg.Message{Type: msg.IntervResp, DstMod: mem, AlsoProc: 1}, 1<<1 | 1<<mem},
		{"interv resp to nc, cpu 0 snarfs", 3, msg.Message{Type: msg.IntervResp, DstMod: nc, AlsoProc: 0}, 1<<0 | 1<<nc},
		{"network-bound", nc, msg.Message{Type: msg.RemRead, DstMod: ri}, 1 << ri},
		// Processor multicasts apply only at the final station.
		{"network-bound multicast", mem, msg.Message{Type: msg.NetInterrupt, DstMod: ri, BusProcs: 0b1111}, 1 << ri},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, mods, _ := build(t)
			m := c.m
			mods[c.from].out.Push(&m)
			if got := b.Tick(0); got != 0 {
				t.Fatalf("grant-only tick delivered to %b", got)
			}
			free, arbcmd := b.busyUntil, int64(b.p.BusArbCycles+b.p.BusCmdCycles)
			for k := 0; k < g.ProcsPerStation; k++ {
				want := free + arbcmd
				if c.want&(1<<uint(g.ModProc(k))) != 0 {
					want = free
				}
				if h := b.HitHorizon(k, 1); h != want {
					t.Errorf("HitHorizon(%d) = %d in flight, want %d", k, h, want)
				}
			}
			var got uint32
			for now := int64(1); got == 0 && now < 50; now++ {
				got = b.Tick(now)
			}
			if got != c.want {
				t.Fatalf("delivery set %b, want %b", got, c.want)
			}
			for i, mod := range mods {
				if inSet := got&(1<<uint(i)) != 0; inSet != (len(mod.received) > 0) {
					t.Errorf("module %d received %d message(s), in the delivery set: %v", i, len(mod.received), inSet)
				}
			}
		})
	}
}
