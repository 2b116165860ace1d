package netcache

import (
	"testing"

	"numachine/internal/memory"
	"numachine/internal/msg"
)

// TestInterventionCompletionTable pins how the NC finishes the work a bus
// intervention answers: a local intervention (txnLocalInterv), the service
// of the home's network intervention from the side table (the line is
// NotIn) or from an LI entry (txnNetServe), and false-remote recovery
// (txnRecover). Each is crossed with the orders its replies can arrive in:
// the owner's response, the misses, and an eviction write-back before or
// after the misses. Each row asserts the types of the messages the replies
// produce, the data every data-carrying one holds and, for the home, the
// network transaction id; then the entry (or its absence), its lock,
// processor mask and data, and that no side-table work is left.
//
// The NC is on station 1 and the line 0x40 is homed on station 0. LI
// setups start from an exclusive fill of 9 owned by proc 0; network
// interventions carry txn id 77 for station 2. Replies carry 55 (an
// intervention response) or 31 (a write-back).
func TestInterventionCompletionTable(t *testing.T) {
	const line = 0x40
	const id = 77

	li := func(h *harness) {
		h.localReq(msg.LocalReadEx, line, 0, false)
		h.deliver(&msg.Message{Type: msg.NetDataEx, Line: line, Home: 0,
			SrcStation: 0, Data: 9})
	}
	interv := func(k msg.Type) func(h *harness) {
		return func(h *harness) {
			h.deliver(&msg.Message{Type: k, Line: line, Home: 0,
				SrcStation: 0, ReqStation: 2, TxnID: id})
		}
	}
	// bounce has the home answer proc 0's fetch with a false remote.
	bounce := func(k, fetch msg.Type) func(h *harness) {
		return func(h *harness) {
			h.localReq(k, line, 0, false)
			h.deliver(&msg.Message{Type: msg.FalseRemoteResp, Line: line, Home: 0,
				SrcStation: 0, NakOf: fetch})
		}
	}
	setups := map[string]func(h *harness){
		"local-interv/read":   func(h *harness) { li(h); h.localReq(msg.LocalRead, line, 1, false) },
		"local-interv/readex": func(h *harness) { li(h); h.localReq(msg.LocalReadEx, line, 1, false) },
		"side-serve/shared":   interv(msg.NetIntervShared),
		"side-serve/ex":       interv(msg.NetIntervEx),
		"entry-serve/shared":  func(h *harness) { li(h); interv(msg.NetIntervShared)(h) },
		"entry-serve/ex":      func(h *harness) { li(h); interv(msg.NetIntervEx)(h) },
		"recover/read":        bounce(msg.LocalRead, msg.RemRead),
		"recover/readex":      bounce(msg.LocalReadEx, msg.RemReadEx),
	}

	resp := func(p int) *msg.Message {
		return &msg.Message{Type: msg.IntervResp, Line: line, SrcMod: p, SrcStation: 1, Data: 55}
	}
	miss := func(p int) *msg.Message {
		return &msg.Message{Type: msg.IntervMiss, Line: line, SrcMod: p, SrcStation: 1}
	}
	wb := func(p int) *msg.Message {
		return &msg.Message{Type: msg.LocalWrBack, Line: line, Home: 0,
			SrcMod: p, SrcStation: 1, Data: 31}
	}
	misses := func(ps ...int) []*msg.Message {
		var out []*msg.Message
		for _, p := range ps {
			out = append(out, miss(p))
		}
		return out
	}
	seq := func(parts ...any) []*msg.Message {
		var out []*msg.Message
		for _, p := range parts {
			switch p := p.(type) {
			case *msg.Message:
				out = append(out, p)
			case []*msg.Message:
				out = append(out, p...)
			}
		}
		return out
	}

	const notIn = -1
	stateName := func(s int) string {
		if s == notIn {
			return "NotIn"
		}
		return memory.DirState(s).String()
	}
	rows := []struct {
		name    string
		setup   string
		replies []*msg.Message
		out     []msg.Type
		sent    uint64 // data every data-carrying output holds
		state   int    // entry state, or notIn
		locked  bool
		procs   uint16
		data    uint64
	}{
		// ---- local intervention (entry only: the line is LI) ----
		{name: "local-interv/read/resp", setup: "local-interv/read", replies: seq(resp(0)),
			// The requester snarfed the response off the bus.
			state: int(LV), procs: 0b0011, data: 55},
		{name: "local-interv/readex/resp", setup: "local-interv/readex", replies: seq(resp(0)),
			state: int(LI), procs: 0b0010, data: 55},
		{name: "local-interv/read/miss-wb", setup: "local-interv/read", replies: seq(miss(0), wb(0)),
			// The owner had evicted: the requester is granted explicitly.
			out: []msg.Type{msg.ProcData}, sent: 31, state: int(LV), procs: 0b0010, data: 31},
		{name: "local-interv/read/wb-miss", setup: "local-interv/read", replies: seq(wb(0), miss(0)),
			out: []msg.Type{msg.ProcData}, sent: 31, state: int(LV), procs: 0b0010, data: 31},
		{name: "local-interv/readex/miss-wb", setup: "local-interv/readex", replies: seq(miss(0), wb(0)),
			out: []msg.Type{msg.ProcDataEx}, sent: 31, state: int(LI), procs: 0b0010, data: 31},
		{name: "local-interv/readex/wb-miss", setup: "local-interv/readex", replies: seq(wb(0), miss(0)),
			out: []msg.Type{msg.ProcDataEx}, sent: 31, state: int(LI), procs: 0b0010, data: 31},

		// ---- network intervention served from the side table ----
		{name: "side-serve/shared/resp", setup: "side-serve/shared", replies: seq(misses(0, 1, 2), resp(3)),
			out: []msg.Type{msg.NetData, msg.NetWBCopy}, sent: 55, state: notIn},
		{name: "side-serve/shared/resp-first", setup: "side-serve/shared", replies: seq(resp(3), misses(0, 1, 2)),
			out: []msg.Type{msg.NetData, msg.NetWBCopy}, sent: 55, state: notIn},
		{name: "side-serve/ex/resp", setup: "side-serve/ex", replies: seq(misses(0, 1, 2), resp(3)),
			out: []msg.Type{msg.NetDataEx, msg.NetXferDone}, sent: 55, state: notIn},
		{name: "side-serve/shared/wb-misses", setup: "side-serve/shared", replies: seq(wb(3), misses(0, 1, 2, 3)),
			out: []msg.Type{msg.NetData, msg.NetWBCopy}, sent: 31, state: notIn},
		{name: "side-serve/ex/wb-misses", setup: "side-serve/ex", replies: seq(wb(3), misses(0, 1, 2, 3)),
			out: []msg.Type{msg.NetDataEx, msg.NetXferDone}, sent: 31, state: notIn},
		{name: "side-serve/shared/misses-wb", setup: "side-serve/shared", replies: seq(misses(0, 1, 2, 3), wb(3)),
			// Every processor missed and no write-back preceded the last
			// miss: the data is travelling home. The late write-back then
			// allocates an ordinary LV entry.
			out: []msg.Type{msg.NetIntervMiss}, state: int(LV), procs: 0, data: 31},
		{name: "side-serve/ex/misses-wb", setup: "side-serve/ex", replies: seq(misses(0, 1, 2, 3), wb(3)),
			out: []msg.Type{msg.NetIntervMiss}, state: int(LV), procs: 0, data: 31},

		// ---- network intervention served from an LI entry ----
		{name: "entry-serve/shared/resp", setup: "entry-serve/shared", replies: seq(resp(0)),
			out: []msg.Type{msg.NetData, msg.NetWBCopy}, sent: 55, state: int(GV), procs: 0b0001, data: 55},
		{name: "entry-serve/ex/resp", setup: "entry-serve/ex", replies: seq(resp(0)),
			out: []msg.Type{msg.NetDataEx, msg.NetXferDone}, sent: 55, state: int(GI), procs: 0, data: 9},
		{name: "entry-serve/shared/wb-miss", setup: "entry-serve/shared", replies: seq(wb(0), miss(0)),
			out: []msg.Type{msg.NetData, msg.NetWBCopy}, sent: 31, state: int(GV), procs: 0, data: 31},
		{name: "entry-serve/ex/wb-miss", setup: "entry-serve/ex", replies: seq(wb(0), miss(0)),
			out: []msg.Type{msg.NetDataEx, msg.NetXferDone}, sent: 31, state: int(GI), procs: 0, data: 9},
		{name: "entry-serve/shared/miss-wb", setup: "entry-serve/shared", replies: seq(miss(0), wb(0)),
			// The miss goes home at once (GI); the late write-back makes
			// the unlocked entry LV.
			out: []msg.Type{msg.NetIntervMiss}, state: int(LV), procs: 0, data: 31},
		{name: "entry-serve/ex/miss-wb", setup: "entry-serve/ex", replies: seq(miss(0), wb(0)),
			out: []msg.Type{msg.NetIntervMiss}, state: int(LV), procs: 0, data: 31},

		// ---- false-remote recovery (entry only) ----
		{name: "recover/read/resp", setup: "recover/read", replies: seq(misses(1, 2), resp(3)),
			state: int(LV), procs: 0b0001, data: 55},
		{name: "recover/readex/resp", setup: "recover/readex", replies: seq(misses(1, 2), resp(3)),
			state: int(LI), procs: 0b0001, data: 55},
		{name: "recover/read/wb-misses", setup: "recover/read", replies: seq(wb(3), misses(1, 2, 3)),
			out: []msg.Type{msg.ProcData}, sent: 31, state: int(LV), procs: 0b0001, data: 31},
		{name: "recover/readex/wb-misses", setup: "recover/readex", replies: seq(wb(3), misses(1, 2, 3)),
			out: []msg.Type{msg.ProcDataEx}, sent: 31, state: int(LI), procs: 0b0001, data: 31},
		{name: "recover/read/misses-wb", setup: "recover/read", replies: seq(misses(1, 2, 3), wb(3)),
			// The bounce was stale: recovery falls back to a fresh fetch,
			// which the late write-back does not disturb.
			out: []msg.Type{msg.RemRead}, state: int(GI), locked: true, procs: 0, data: 0},
		{name: "recover/readex/misses-wb", setup: "recover/readex", replies: seq(misses(1, 2, 3), wb(3)),
			out: []msg.Type{msg.RemReadEx}, state: int(GI), locked: true, procs: 0, data: 0},
	}

	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			setups[tc.setup](h)
			var out []*msg.Message
			for _, r := range tc.replies {
				out = append(out, h.deliver(r)...)
			}
			expectTypes(t, out, tc.out...)
			for _, o := range out {
				if o.Type.CarriesData() && o.Data != tc.sent {
					t.Errorf("%v carries %d, want %d", o.Type, o.Data, tc.sent)
				}
				switch o.Type {
				case msg.NetData, msg.NetDataEx, msg.NetWBCopy, msg.NetXferDone, msg.NetIntervMiss:
					if o.TxnID != id {
						t.Errorf("%v carries txn %d, want %d", o.Type, o.TxnID, id)
					}
				}
			}
			st, locked, procs, data, ok := h.n.Peek(line)
			if !ok {
				if tc.state != notIn {
					t.Fatalf("entry NotIn, want %v", stateName(tc.state))
				}
			} else {
				if tc.state == notIn {
					t.Fatalf("entry %v, want NotIn", st)
				}
				if int(st) != tc.state || locked != tc.locked || procs != tc.procs || data != tc.data {
					t.Errorf("entry %v locked=%v procs=%04b data=%d, want %v locked=%v procs=%04b data=%d",
						st, locked, procs, data, stateName(tc.state), tc.locked, tc.procs, tc.data)
				}
			}
			if n := len(h.n.sideTxns); n != 0 {
				t.Errorf("%d side-table transactions left", n)
			}
		})
	}
}
