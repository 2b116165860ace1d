package memory

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// harness drives one memory module directly, capturing its outputs.
type harness struct {
	t   *testing.T
	m   *Module
	g   topo.Geometry
	now int64
}

func newHarness(t *testing.T) *harness {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	p := sim.DefaultParams()
	return &harness{t: t, m: newModule(g, p, 0), g: g}
}

// newModule builds a memory module in place, as core.New does, with its
// own message pool.
func newModule(g topo.Geometry, p sim.Params, station int) *Module {
	m := new(Module)
	m.Init(g, &p, station)
	m.Msgs = new(msg.Pool[msg.Message])
	return m
}

// deliver hands the module a message and runs until it quiesces.
func (h *harness) deliver(x *msg.Message) []*msg.Message {
	h.m.BusDeliver(x, h.now)
	var out []*msg.Message
	for i := 0; i < 200; i++ {
		h.m.Tick(h.now)
		h.now++
		for {
			o, ok := h.m.BusOut().Pop()
			if !ok {
				break
			}
			out = append(out, o)
		}
	}
	return out
}

func (h *harness) localRead(line uint64, proc int) []*msg.Message {
	return h.deliver(&msg.Message{Type: msg.LocalRead, Line: line, Home: 0,
		SrcMod: proc, SrcStation: 0, Requester: proc})
}

func (h *harness) localWrite(line uint64, proc int, t msg.Type) []*msg.Message {
	return h.deliver(&msg.Message{Type: t, Line: line, Home: 0,
		SrcMod: proc, SrcStation: 0, Requester: proc})
}

func (h *harness) remote(line uint64, t msg.Type, src int) []*msg.Message {
	return h.deliver(&msg.Message{Type: t, Line: line, Home: 0,
		SrcMod: h.g.ModRI(), SrcStation: src, ReqStation: src})
}

func (h *harness) state(line uint64) DirState {
	st, _, _, _, _ := h.m.Peek(line)
	return st
}

func expectTypes(t *testing.T, out []*msg.Message, want ...msg.Type) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("got %d messages %v, want %v", len(out), typesOf(out), want)
	}
	for i, m := range out {
		if m.Type != want[i] {
			t.Fatalf("message %d = %v, want %v (all: %v)", i, m.Type, want[i], typesOf(out))
		}
	}
}

func typesOf(out []*msg.Message) []msg.Type {
	var ts []msg.Type
	for _, m := range out {
		ts = append(ts, m.Type)
	}
	return ts
}

// ---- Figure 5 transitions ----

func TestLVLocalReadStaysLV(t *testing.T) {
	h := newHarness(t)
	h.m.PokeData(0x100, 77)
	out := h.localRead(0x100, 1)
	expectTypes(t, out, msg.ProcData)
	if out[0].Data != 77 {
		t.Errorf("data %d, want 77", out[0].Data)
	}
	if h.state(0x100) != LV {
		t.Errorf("state %v, want LV", h.state(0x100))
	}
	_, _, _, procs, _ := h.m.Peek(0x100)
	if procs != 0b0010 {
		t.Errorf("procs %04b, want 0010", procs)
	}
}

func TestLVLocalReadExGoesLI(t *testing.T) {
	h := newHarness(t)
	h.localRead(0x100, 0)
	h.localRead(0x100, 1)
	out := h.localWrite(0x100, 2, msg.LocalReadEx)
	// Other sharers are invalidated on the bus; requester gets data.
	expectTypes(t, out, msg.BusInval, msg.ProcDataEx)
	if out[0].BusProcs != 0b0011 {
		t.Errorf("invalidated %04b, want 0011", out[0].BusProcs)
	}
	if h.state(0x100) != LI {
		t.Errorf("state %v, want LI", h.state(0x100))
	}
}

func TestLVUpgradeAcksWithoutData(t *testing.T) {
	h := newHarness(t)
	h.localRead(0x100, 1)
	out := h.localWrite(0x100, 1, msg.LocalUpgd)
	expectTypes(t, out, msg.ProcUpgdAck)
	if h.state(0x100) != LI {
		t.Errorf("state %v, want LI", h.state(0x100))
	}
}

func TestLIIntervention(t *testing.T) {
	h := newHarness(t)
	h.localWrite(0x100, 0, msg.LocalReadEx) // proc 0 owns dirty
	out := h.localRead(0x100, 1)
	expectTypes(t, out, msg.BusIntervention)
	if out[0].Ex {
		t.Error("shared read issued an exclusive intervention")
	}
	if out[0].AlsoProc != 1 {
		t.Errorf("AlsoProc = %d, want requester 1", out[0].AlsoProc)
	}
	// Owner responds with the dirty data.
	out = h.deliver(&msg.Message{Type: msg.IntervResp, Line: 0x100, Home: 0,
		SrcMod: 0, SrcStation: 0, Data: 55, AlsoProc: 1})
	expectTypes(t, out) // requester snarfed from the bus; no further messages
	if h.state(0x100) != LV {
		t.Errorf("state %v, want LV after shared intervention", h.state(0x100))
	}
	if _, _, _, _, data := h.m.Peek(0x100); data != 55 {
		t.Errorf("DRAM %d, want 55", data)
	}
}

func TestLIWriteBackGoesLV(t *testing.T) {
	h := newHarness(t)
	h.localWrite(0x100, 2, msg.LocalReadEx)
	out := h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x100, Home: 0,
		SrcMod: 2, SrcStation: 0, Data: 99})
	expectTypes(t, out)
	if h.state(0x100) != LV {
		t.Errorf("state %v, want LV", h.state(0x100))
	}
	if _, _, _, procs, data := h.m.Peek(0x100); procs != 0 || data != 99 {
		t.Errorf("procs %04b data %d, want 0 and 99", procs, data)
	}
}

func TestRemReadSharesGV(t *testing.T) {
	h := newHarness(t)
	h.m.PokeData(0x200, 11)
	out := h.remote(0x200, msg.RemRead, 3)
	expectTypes(t, out, msg.NetData)
	if out[0].DstStation != 3 || out[0].Data != 11 {
		t.Fatalf("NetData to %d data %d", out[0].DstStation, out[0].Data)
	}
	if h.state(0x200) != GV {
		t.Errorf("state %v, want GV", h.state(0x200))
	}
	_, _, mask, _, _ := h.m.Peek(0x200)
	if !mask.Contains(h.g, 3) || !mask.Contains(h.g, 0) {
		t.Errorf("mask %v must cover requester and home", mask)
	}
}

func TestRemReadExSendsDataThenInval(t *testing.T) {
	h := newHarness(t)
	out := h.remote(0x200, msg.RemReadEx, 2)
	// Data response first, then the invalidation multicast (§2.3 ordering).
	expectTypes(t, out, msg.NetDataEx, msg.Invalidate)
	if !out[0].InvalFollows {
		t.Error("NetDataEx must announce the following invalidation")
	}
	if out[0].TxnID != out[1].TxnID {
		t.Error("data and invalidation must share the transaction id")
	}
	if !out[1].Mask.Contains(h.g, 2) || !out[1].Mask.Contains(h.g, 0) {
		t.Errorf("invalidation mask %v must cover requester and home", out[1].Mask)
	}
	// The line stays locked until the invalidation returns.
	nak := h.remote(0x200, msg.RemRead, 3)
	expectTypes(t, nak, msg.NetNAK)
	// Return of the invalidation unlocks and finalizes GI.
	done := h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x200, Home: 0,
		SrcStation: 0, TxnID: out[1].TxnID})
	expectTypes(t, done)
	if h.state(0x200) != GI {
		t.Errorf("state %v, want GI", h.state(0x200))
	}
	_, _, mask, _, _ := h.m.Peek(0x200)
	if st, ok := mask.Exact(h.g); !ok || st != 2 {
		t.Errorf("GI owner mask %v, want exactly station 2", mask)
	}
}

func TestOptimisticUpgrade(t *testing.T) {
	h := newHarness(t)
	h.remote(0x200, msg.RemRead, 2) // station 2 becomes a sharer
	out := h.remote(0x200, msg.RemUpgd, 2)
	expectTypes(t, out, msg.NetUpgdAck, msg.Invalidate)
	if h.m.Stats.OptimisticAcks != 1 {
		t.Error("optimistic ack not counted")
	}
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x200, Home: 0,
		SrcStation: 0, TxnID: out[1].TxnID})
	if h.state(0x200) != GI {
		t.Errorf("state %v, want GI", h.state(0x200))
	}
}

func TestNonSharerUpgradeGetsData(t *testing.T) {
	h := newHarness(t)
	// Station 3 claims a shared copy it does not have (it was never granted
	// one): the directory cannot confirm it, so data must travel.
	out := h.remote(0x200, msg.RemUpgd, 3)
	expectTypes(t, out, msg.NetDataEx, msg.Invalidate)
	if h.m.Stats.UpgradeDataSends != 1 {
		t.Error("upgrade-with-data not counted")
	}
}

func TestGIRemoteReadForwardsIntervention(t *testing.T) {
	h := newHarness(t)
	ex := h.remote(0x200, msg.RemReadEx, 2)
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x200, Home: 0,
		SrcStation: 0, TxnID: ex[1].TxnID})
	// Station 3 reads: home forwards to owner station 2.
	out := h.remote(0x200, msg.RemRead, 3)
	expectTypes(t, out, msg.NetIntervShared)
	if out[0].DstStation != 2 || out[0].ReqStation != 3 {
		t.Fatalf("intervention to %d for %d", out[0].DstStation, out[0].ReqStation)
	}
	// Owner's data copy lands home: GV covering all three parties.
	done := h.deliver(&msg.Message{Type: msg.NetWBCopy, Line: 0x200, Home: 0,
		SrcStation: 2, Data: 5, TxnID: out[0].TxnID})
	expectTypes(t, done)
	if h.state(0x200) != GV {
		t.Errorf("state %v, want GV", h.state(0x200))
	}
}

func TestFalseRemoteBounce(t *testing.T) {
	h := newHarness(t)
	ex := h.remote(0x200, msg.RemReadEx, 2)
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x200, Home: 0,
		SrcStation: 0, TxnID: ex[1].TxnID})
	// The owner itself asks again (its NC ejected the entry): bounce.
	out := h.remote(0x200, msg.RemRead, 2)
	expectTypes(t, out, msg.FalseRemoteResp)
	if h.m.Stats.FalseRemotes != 1 {
		t.Error("false remote not counted")
	}
	if h.state(0x200) != GI {
		t.Errorf("state %v, want GI unchanged", h.state(0x200))
	}
}

func TestRemWrBackFromOwnerGoesGV(t *testing.T) {
	h := newHarness(t)
	ex := h.remote(0x200, msg.RemReadEx, 2)
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x200, Home: 0,
		SrcStation: 0, TxnID: ex[1].TxnID})
	out := h.deliver(&msg.Message{Type: msg.RemWrBack, Line: 0x200, Home: 0,
		SrcStation: 2, Data: 123})
	expectTypes(t, out)
	if h.state(0x200) != GV {
		t.Errorf("state %v, want GV (fig. 5 GI->GV on RemWrBack)", h.state(0x200))
	}
	if _, _, _, _, data := h.m.Peek(0x200); data != 123 {
		t.Errorf("DRAM %d, want 123", data)
	}
}

func TestLockedLineNAKsAllRequests(t *testing.T) {
	h := newHarness(t)
	h.localWrite(0x100, 0, msg.LocalReadEx)
	h.localRead(0x100, 1) // starts an intervention; line locked
	out := h.localRead(0x100, 2)
	expectTypes(t, out, msg.ProcNAK)
	out = h.remote(0x100, msg.RemRead, 3)
	expectTypes(t, out, msg.NetNAK)
	if h.m.Stats.NAKs != 2 {
		t.Errorf("NAKs = %d, want 2", h.m.Stats.NAKs)
	}
}

func TestInterventionMissCompletesFromWriteBack(t *testing.T) {
	h := newHarness(t)
	h.localWrite(0x100, 0, msg.LocalReadEx)
	h.localRead(0x100, 1) // intervention to proc 0 outstanding
	// Proc 0's eviction write-back races past the intervention.
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x100, Home: 0,
		SrcMod: 0, SrcStation: 0, Data: 31})
	out := h.deliver(&msg.Message{Type: msg.IntervMiss, Line: 0x100, Home: 0,
		SrcMod: 0, SrcStation: 0})
	// Home completes the read from the written-back data.
	expectTypes(t, out, msg.ProcData)
	if out[0].Data != 31 {
		t.Errorf("data %d, want the written-back 31", out[0].Data)
	}
}

func TestKillReqPurgesLine(t *testing.T) {
	h := newHarness(t)
	h.localRead(0x100, 0)
	h.localRead(0x100, 1)
	out := h.deliver(&msg.Message{Type: msg.KillReq, Line: 0x100, Home: 0,
		SrcMod: 2, SrcStation: 0, Requester: 2, ReqStation: 0})
	expectTypes(t, out, msg.BusInval, msg.NetInterrupt)
	if h.state(0x100) != LV {
		t.Errorf("state %v, want LV", h.state(0x100))
	}
	if _, _, _, procs, _ := h.m.Peek(0x100); procs != 0 {
		t.Errorf("procs %04b, want empty", procs)
	}
}

func TestCoherenceHistogramRecords(t *testing.T) {
	h := newHarness(t)
	h.localRead(0x100, 0)
	h.localWrite(0x100, 0, msg.LocalUpgd)
	hist := h.m.Hist
	if hist.Cell(0, 0) != 1 { // LocalRead at LV
		t.Errorf("LocalRead@LV = %d, want 1", hist.Cell(0, 0))
	}
	if hist.Cell(2, 0) != 1 { // LocalUpgd at LV
		t.Errorf("LocalUpgd@LV = %d, want 1", hist.Cell(2, 0))
	}
}
