package netcache

import (
	"testing"

	"numachine/internal/memory"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// harness drives one network cache directly. The NC lives on station 1;
// lines are homed on station 0.
type harness struct {
	t   *testing.T
	n   *Module
	g   topo.Geometry
	now int64
}

func newHarness(t *testing.T) *harness {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	p := sim.DefaultParams()
	p.NCLines = 16 // tiny: ejections are easy to provoke
	return &harness{t: t, n: newModule(g, p, 1), g: g}
}

// newModule builds a network cache in place, as core.New does, with its
// own message pool.
func newModule(g topo.Geometry, p sim.Params, station int) *Module {
	n := new(Module)
	n.Init(g, &p, station)
	n.Msgs = new(msg.Pool[msg.Message])
	return n
}

func (h *harness) deliver(x *msg.Message) []*msg.Message {
	h.n.BusDeliver(x, h.now)
	var out []*msg.Message
	for i := 0; i < 400; i++ {
		h.n.Tick(h.now)
		h.now++
		for {
			o, ok := h.n.BusOut().Pop()
			if !ok {
				break
			}
			out = append(out, o)
		}
	}
	return out
}

func (h *harness) localReq(t msg.Type, line uint64, proc int, retry bool) []*msg.Message {
	return h.deliver(&msg.Message{Type: t, Line: line, Home: 0,
		SrcMod: proc, SrcStation: 1, Requester: h.g.ProcAt(1, proc), Retry: retry})
}

// fill completes a pending shared fetch with data from home.
func (h *harness) fill(line uint64, data uint64) []*msg.Message {
	return h.deliver(&msg.Message{Type: msg.NetData, Line: line, Home: 0,
		SrcStation: 0, SrcMod: h.g.ModRI(), Data: data})
}

func expectTypes(t *testing.T, out []*msg.Message, want ...msg.Type) {
	t.Helper()
	var ts []msg.Type
	for _, m := range out {
		ts = append(ts, m.Type)
	}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", ts, want)
	}
	for i := range want {
		if out[i].Type != want[i] {
			t.Fatalf("message %d: got %v, want %v", i, ts, want)
		}
	}
}

func TestMissFetchesFromHome(t *testing.T) {
	h := newHarness(t)
	out := h.localReq(msg.LocalRead, 0x40, 0, false)
	expectTypes(t, out, msg.RemRead)
	if out[0].DstStation != 0 {
		t.Errorf("fetch sent to %d, want home 0", out[0].DstStation)
	}
	// Data arrival grants the processor and leaves the entry GV.
	out = h.fill(0x40, 7)
	expectTypes(t, out, msg.ProcData)
	st, _, procs, data, ok := h.n.Peek(0x40)
	if !ok || st != GV || procs != 1 || data != 7 {
		t.Fatalf("entry = %v procs=%04b data=%d ok=%v", st, procs, data, ok)
	}
}

func TestHitServedLocally(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalRead, 0x40, 0, false)
	h.fill(0x40, 7)
	out := h.localReq(msg.LocalRead, 0x40, 2, false)
	expectTypes(t, out, msg.ProcData)
	if h.n.Stats.HitsMigration != 1 {
		t.Error("hit by another processor must count as migration effect")
	}
	out = h.localReq(msg.LocalRead, 0x40, 0, false)
	expectTypes(t, out, msg.ProcData)
	if h.n.Stats.HitsCaching != 1 {
		t.Error("re-read by the fetcher must count as caching effect")
	}
}

func TestCombiningNAKsConcurrentFetch(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalRead, 0x40, 0, false) // fetch outstanding
	out := h.localReq(msg.LocalRead, 0x40, 1, false)
	expectTypes(t, out, msg.ProcNAK)
	if h.n.Stats.Combined != 1 {
		t.Error("concurrent same-line request must count as combining")
	}
	// Retries are excluded from the rates.
	out = h.localReq(msg.LocalRead, 0x40, 1, true)
	expectTypes(t, out, msg.ProcNAK)
	if h.n.Stats.Combined != 1 {
		t.Error("retry must not be double counted")
	}
	if h.n.Stats.Requests != 2 {
		t.Errorf("requests = %d, want 2 non-retry", h.n.Stats.Requests)
	}
}

func TestCoherenceLocalizationLVWrite(t *testing.T) {
	h := newHarness(t)
	// Make the entry LV: exclusive grant, then write-back from the owner.
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10})
	st, _, _, _, _ := h.n.Peek(0x40)
	if st != LV {
		t.Fatalf("state %v, want LV after local write-back", st)
	}
	// A write by another processor is now satisfied entirely on-station.
	out := h.localReq(msg.LocalReadEx, 0x40, 2, false)
	expectTypes(t, out, msg.ProcDataEx)
	st, _, procs, _, _ := h.n.Peek(0x40)
	if st != LI || procs != 0b0100 {
		t.Errorf("state %v procs %04b, want LI owned by proc 2", st, procs)
	}
	if h.n.Stats.RemoteFetches != 1 {
		t.Errorf("remote fetches = %d; the LV write must not go home", h.n.Stats.RemoteFetches)
	}
}

func TestLILocalIntervention(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	// Proc 1 reads: intervention to owner proc 0 with bus snarfing.
	out := h.localReq(msg.LocalRead, 0x40, 1, false)
	expectTypes(t, out, msg.BusIntervention)
	if out[0].AlsoProc != 1 || out[0].Ex {
		t.Fatalf("intervention %+v, want shared with AlsoProc=1", out[0])
	}
	out = h.deliver(&msg.Message{Type: msg.IntervResp, Line: 0x40,
		SrcMod: 0, SrcStation: 1, Data: 12, AlsoProc: 1})
	expectTypes(t, out)
	st, _, procs, data, _ := h.n.Peek(0x40)
	if st != LV || procs != 0b0011 || data != 12 {
		t.Errorf("state %v procs %04b data %d after local intervention", st, procs, data)
	}
	if h.n.Stats.LocalInterv != 1 {
		t.Error("local intervention not counted")
	}
}

func TestSCLockingHoldsDataUntilInval(t *testing.T) {
	h := newHarness(t)
	out := h.localReq(msg.LocalReadEx, 0x40, 0, false)
	expectTypes(t, out, msg.RemReadEx)
	// Data arrives announcing a following invalidation: the grant waits.
	out = h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9, InvalFollows: true, TxnID: 42})
	expectTypes(t, out)
	// The sequenced invalidation releases the data (fig. 7). Stale sharers
	// are broadcast-invalidated (the writer itself excluded).
	out = h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 42})
	expectTypes(t, out, msg.BusInval, msg.ProcDataEx)
	if out[0].BusProcs != 0b1110 {
		t.Errorf("broadcast inval %04b, want all but the writer", out[0].BusProcs)
	}
	st, _, _, _, _ := h.n.Peek(0x40)
	if st != LI {
		t.Errorf("state %v, want LI", st)
	}
}

func TestNoSCLockingGrantsOnData(t *testing.T) {
	h := newHarness(t)
	h.n.p.SCLocking = false
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	out := h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9, InvalFollows: true, TxnID: 42})
	expectTypes(t, out, msg.ProcDataEx) // granted immediately
	// The entry remains locked until the invalidation is absorbed.
	out = h.localReq(msg.LocalRead, 0x40, 1, false)
	expectTypes(t, out, msg.ProcNAK)
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 42})
	out = h.localReq(msg.LocalRead, 0x40, 1, false)
	expectTypes(t, out, msg.BusIntervention) // LI now serves locally
}

func TestNetNAKSchedulesRetry(t *testing.T) {
	h := newHarness(t)
	out := h.localReq(msg.LocalRead, 0x40, 0, false)
	expectTypes(t, out, msg.RemRead)
	out = h.deliver(&msg.Message{Type: msg.NetNAK, Line: 0x40, Home: 0,
		SrcStation: 0, NakOf: msg.RemRead})
	// After the retry delay the request is re-issued.
	expectTypes(t, out, msg.RemRead)
	if h.n.Stats.NetNAKRetries != 1 {
		t.Error("network retry not counted")
	}
}

func TestFalseRemoteRecovery(t *testing.T) {
	h := newHarness(t)
	out := h.localReq(msg.LocalRead, 0x40, 0, false)
	expectTypes(t, out, msg.RemRead)
	// The home says we already own the line (directory lost to ejection).
	out = h.deliver(&msg.Message{Type: msg.FalseRemoteResp, Line: 0x40, Home: 0,
		SrcStation: 0, NakOf: msg.RemRead})
	expectTypes(t, out, msg.BusIntervention)
	if out[0].BusProcs != 0b1110 {
		t.Errorf("recovery broadcast %04b, want all but requester", out[0].BusProcs)
	}
	if h.n.Stats.FalseRemotes != 1 {
		t.Error("false remote not counted")
	}
	// Proc 2 had the dirty copy.
	h.deliver(&msg.Message{Type: msg.IntervMiss, Line: 0x40, SrcMod: 1, SrcStation: 1})
	out = h.deliver(&msg.Message{Type: msg.IntervResp, Line: 0x40, SrcMod: 2,
		SrcStation: 1, Data: 88, AlsoProc: 0})
	expectTypes(t, out)
	st, _, _, data, _ := h.n.Peek(0x40)
	if st != LV || data != 88 {
		t.Errorf("state %v data %d after recovery, want LV 88", st, data)
	}
}

func TestNetIntervSharedFromLV(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10}) // now LV
	// Home forwards a shared intervention for station 3's read.
	out := h.deliver(&msg.Message{Type: msg.NetIntervShared, Line: 0x40, Home: 0,
		SrcStation: 0, ReqStation: 3, TxnID: 77})
	expectTypes(t, out, msg.NetData, msg.NetWBCopy)
	if out[0].DstStation != 3 || out[0].Data != 10 {
		t.Fatalf("data to %d value %d", out[0].DstStation, out[0].Data)
	}
	if out[1].DstStation != 0 {
		t.Fatalf("write-back copy to %d, want home", out[1].DstStation)
	}
	st, _, _, _, _ := h.n.Peek(0x40)
	if st != GV {
		t.Errorf("state %v, want GV after shared intervention", st)
	}
}

func TestNetIntervExTransfersOwnership(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10})
	out := h.deliver(&msg.Message{Type: msg.NetIntervEx, Line: 0x40, Home: 0,
		SrcStation: 0, ReqStation: 3, TxnID: 78})
	expectTypes(t, out, msg.NetDataEx, msg.NetXferDone)
	if out[0].DstStation != 3 || out[1].DstStation != 0 {
		t.Fatal("transfer must send data to the requester and confirm to home")
	}
	st, _, procs, _, _ := h.n.Peek(0x40)
	if st != GI || procs != 0 {
		t.Errorf("state %v procs %04b, want GI empty", st, procs)
	}
}

func TestNetIntervWhenNotInBroadcasts(t *testing.T) {
	h := newHarness(t)
	// The NC has no entry but home believes this station owns the line.
	out := h.deliver(&msg.Message{Type: msg.NetIntervShared, Line: 0x80, Home: 0,
		SrcStation: 0, ReqStation: 2, TxnID: 79})
	expectTypes(t, out, msg.BusIntervention)
	if out[0].BusProcs != 0b1111 {
		t.Errorf("broadcast %04b, want all processors", out[0].BusProcs)
	}
	// Proc 3 supplies the dirty copy.
	for p := 0; p < 3; p++ {
		h.deliver(&msg.Message{Type: msg.IntervMiss, Line: 0x80, SrcMod: p, SrcStation: 1})
	}
	out = h.deliver(&msg.Message{Type: msg.IntervResp, Line: 0x80, SrcMod: 3,
		SrcStation: 1, Data: 66})
	expectTypes(t, out, msg.NetData, msg.NetWBCopy)
}

func TestNetIntervAllMissReportsMiss(t *testing.T) {
	h := newHarness(t)
	out := h.deliver(&msg.Message{Type: msg.NetIntervShared, Line: 0x80, Home: 0,
		SrcStation: 0, ReqStation: 2, TxnID: 80})
	expectTypes(t, out, msg.BusIntervention)
	var last []*msg.Message
	for p := 0; p < 4; p++ {
		last = h.deliver(&msg.Message{Type: msg.IntervMiss, Line: 0x80, SrcMod: p, SrcStation: 1})
	}
	// Nothing on the station: the write-back must be travelling home.
	expectTypes(t, last, msg.NetIntervMiss)
	if !h.n.Idle() {
		t.Error("side transaction leaked")
	}
}

func TestEjectionWritesBackLV(t *testing.T) {
	h := newHarness(t)
	// Line 0x40 becomes LV.
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10})
	// A conflicting line (16 lines * 64 B apart) evicts it.
	conflict := uint64(0x40 + 16*64)
	out := h.localReq(msg.LocalRead, conflict, 1, false)
	expectTypes(t, out, msg.RemWrBack, msg.RemRead)
	if out[0].Data != 10 || out[0].DstStation != 0 {
		t.Fatalf("ejection write-back %+v", out[0])
	}
	if h.n.Stats.EjectWrBacks != 1 {
		t.Error("LV ejection write-back not counted")
	}
}

func TestEjectionDropsLISilently(t *testing.T) {
	h := newHarness(t)
	// Line 0x40 LI: proc 0 owns it dirty.
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9})
	conflict := uint64(0x40 + 16*64)
	out := h.localReq(msg.LocalRead, conflict, 1, false)
	expectTypes(t, out, msg.RemRead) // no write-back: directory info lost
	if h.n.Stats.EjectLISilent != 1 {
		t.Error("silent LI ejection not counted (the Table 3 mechanism)")
	}
	if _, _, _, _, ok := h.n.Peek(0x40); ok {
		t.Error("ejected entry still present")
	}
}

func TestInvalidateNotInBroadcasts(t *testing.T) {
	h := newHarness(t)
	out := h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0xc0, Home: 0,
		SrcStation: 0, TxnID: 9})
	expectTypes(t, out, msg.BusInval)
	if out[0].BusProcs != 0b1111 {
		t.Errorf("broadcast %04b, want all processors (§2.3)", out[0].BusProcs)
	}
}

func TestForeignInvalidateKillsSharedEntry(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalRead, 0x40, 0, false)
	h.fill(0x40, 7)
	out := h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 9})
	expectTypes(t, out, msg.BusInval)
	st, _, procs, _, _ := h.n.Peek(0x40)
	if st != GI || procs != 0 {
		t.Errorf("state %v procs %04b, want GI empty", st, procs)
	}
}

func TestReadGrantAfterForeignInvalDeliversButInvalidates(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalRead, 0x40, 0, false)
	// A foreign invalidation overtakes the data (third-station forward).
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 5})
	out := h.fill(0x40, 7)
	// The read's value is delivered (it is ordered before the write) but
	// no copy may be retained.
	expectTypes(t, out, msg.ProcData, msg.BusInval)
	st, _, procs, _, _ := h.n.Peek(0x40)
	if st != GI || procs != 0 {
		t.Errorf("state %v procs %04b, want GI empty", st, procs)
	}
}

func TestUpgradeMisfireSendsSpecialWriteRequest(t *testing.T) {
	h := newHarness(t)
	// Shared entry; proc 0 upgrades.
	h.localReq(msg.LocalRead, 0x40, 0, false)
	h.fill(0x40, 7)
	out := h.localReq(msg.LocalUpgd, 0x40, 0, false)
	expectTypes(t, out, msg.RemUpgd)
	// A foreign invalidation kills our copy before the ack arrives.
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 5})
	// The optimistic ack now grants ownership of nothing: §4.6's special
	// write request must fetch the data.
	out = h.deliver(&msg.Message{Type: msg.NetUpgdAck, Line: 0x40, Home: 0,
		SrcStation: 0, InvalFollows: true, TxnID: 6})
	expectTypes(t, out, msg.SpecialWrReq)
	if h.n.Stats.SpecialWrReqs != 1 {
		t.Error("special write request not counted")
	}
	out = h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 31})
	// Grant waits for our own write's invalidation (TxnID 6).
	out = append(out, h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 6})...)
	found := false
	for _, m := range out {
		if m.Type == msg.ProcDataEx && m.Data == 31 {
			found = true
		}
	}
	if !found {
		t.Fatalf("special write request did not produce an exclusive grant: %v", out)
	}
}

var _ = memory.LV // document the shared state space

func TestPrefetchFillsWithoutGranting(t *testing.T) {
	h := newHarness(t)
	out := h.deliver(&msg.Message{Type: msg.PrefetchReq, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1})
	expectTypes(t, out, msg.RemRead)
	out = h.fill(0x40, 55)
	expectTypes(t, out) // nobody waits: no processor grant
	st, locked, procs, data, ok := h.n.Peek(0x40)
	if !ok || st != GV || locked || procs != 0 || data != 55 {
		t.Fatalf("prefetched entry: %v locked=%v procs=%04b data=%d ok=%v",
			st, locked, procs, data, ok)
	}
	// A later read hits the prefetched line.
	out = h.localReq(msg.LocalRead, 0x40, 2, false)
	expectTypes(t, out, msg.ProcData)
	if h.n.Stats.Prefetches != 1 {
		t.Error("prefetch not counted")
	}
}

func TestPrefetchHitAndConflictAreDropped(t *testing.T) {
	h := newHarness(t)
	h.localReq(msg.LocalRead, 0x40, 0, false)
	h.fill(0x40, 7)
	out := h.deliver(&msg.Message{Type: msg.PrefetchReq, Line: 0x40, Home: 0,
		SrcMod: 1, SrcStation: 1})
	expectTypes(t, out) // present: dropped
	// Conflicting set, locked by a real fetch: the hint is dropped too.
	h.localReq(msg.LocalRead, 0x80, 0, false)
	out = h.deliver(&msg.Message{Type: msg.PrefetchReq, Line: uint64(0x80 + 16*64), Home: 0,
		SrcMod: 1, SrcStation: 1})
	expectTypes(t, out)
}

func TestPrefetchInvalidatedInFlightIsDiscarded(t *testing.T) {
	h := newHarness(t)
	h.deliver(&msg.Message{Type: msg.PrefetchReq, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1})
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 3})
	h.fill(0x40, 9)
	st, _, _, _, ok := h.n.Peek(0x40)
	if ok && st != GI {
		t.Fatalf("invalidated prefetch retained as %v", st)
	}
}

func TestWriteBackDuringInvalDrainGoesLV(t *testing.T) {
	// No-SC-locking mode: the grant happens at data arrival and the entry
	// stays locked until the invalidation drains. An eviction write-back
	// in that window must still move the entry to LV with the data.
	h := newHarness(t)
	h.n.p.SCLocking = false
	h.localReq(msg.LocalReadEx, 0x40, 0, false)
	out := h.deliver(&msg.Message{Type: msg.NetDataEx, Line: 0x40, Home: 0,
		SrcStation: 0, Data: 9, InvalFollows: true, TxnID: 42})
	expectTypes(t, out, msg.ProcDataEx) // granted immediately
	// The owner evicts before the invalidation arrives.
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: 0x40, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10})
	h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0x40, Home: 0,
		SrcStation: 0, TxnID: 42})
	st, locked, procs, data, ok := h.n.Peek(0x40)
	if !ok || locked {
		t.Fatalf("entry ok=%v locked=%v", ok, locked)
	}
	if st != LV || procs != 0 || data != 10 {
		t.Fatalf("state %v procs %04b data %d, want LV empty 10", st, procs, data)
	}
	// A subsequent read must be a clean local hit, not a broken
	// intervention to a nonexistent owner.
	out = h.localReq(msg.LocalRead, 0x40, 1, false)
	expectTypes(t, out, msg.ProcData)
}
