package memory

import (
	"testing"

	"numachine/internal/msg"
)

// TestDirectoryCompletionTable walks the other half of Figure 5: how every
// locked transition finishes. Each locked setup below is crossed with the
// replies that complete it, in every order they can arrive and with SC
// locking on and off where the grant depends on it, plus replies the
// directory must ignore as stale (an unlocked line, a mismatched
// transaction id, a duplicated miss, a write-back from a station the
// intervention did not target). Each row asserts the types of the messages
// the replies produce and the data every data-carrying one holds, then the
// final state, lock bit, processor mask, exact routing mask and DRAM
// contents. TestDirectoryTransitionTable covers the requests that start
// these transitions.
//
// The line is 0x100, homed on station 0, with DRAM 7 before the setup.
// Bus interventions target local processor 1 (the LI owner) and network
// interventions station 2 (the GI owner). Replies carry 55 (an
// intervention response), 31 (a write-back) or 66 (network data). The
// kill is issued by local processor 2.
//
// Setups (state/request that locked the line):
//
//	li/*         LI, proc 1 owns; local requests by proc 0, remote ones
//	             from station 2
//	gi/*         GI, station 2 owns; local requests by proc 0, remote ones
//	             from station 3
//	gv/*         GV, proc 0 and station 2 share; local-readex by proc 1,
//	             local-upgd by proc 0, the optimistic rem-upgd from station 2
//	lv/rem-readex  LV, no sharers; rem-readex from station 2
//	lv           LV, unlocked (stale replies only)
func TestDirectoryCompletionTable(t *testing.T) {
	const line = 0x100

	setups := map[string]func(h *harness) []*msg.Message{
		"lv": func(h *harness) []*msg.Message { return nil },
	}
	li := func(h *harness) { h.localWrite(line, 1, msg.LocalReadEx) }
	gi := func(h *harness) {
		out := h.remote(line, msg.RemReadEx, 2)
		h.deliver(&msg.Message{Type: msg.Invalidate, Line: line, Home: 0,
			SrcStation: 0, TxnID: out[len(out)-1].TxnID})
	}
	gv := func(h *harness) { h.localRead(line, 0); h.remote(line, msg.RemRead, 2) }
	kill := func(h *harness) []*msg.Message {
		return h.deliver(&msg.Message{Type: msg.KillReq, Line: line, Home: 0,
			SrcMod: 2, SrcStation: 0, Requester: 2, ReqStation: 0})
	}
	for base, prep := range map[string]func(h *harness){"li": li, "gi": gi} {
		prep := prep
		remSt := 2 // the LI owner is local: station 2 may ask for the line
		if base == "gi" {
			remSt = 3 // station 2 owns it
		}
		setups[base+"/local-read"] = func(h *harness) []*msg.Message { prep(h); return h.localRead(line, 0) }
		setups[base+"/local-readex"] = func(h *harness) []*msg.Message {
			prep(h)
			return h.localWrite(line, 0, msg.LocalReadEx)
		}
		setups[base+"/rem-read"] = func(h *harness) []*msg.Message { prep(h); return h.remote(line, msg.RemRead, remSt) }
		setups[base+"/rem-readex"] = func(h *harness) []*msg.Message {
			prep(h)
			return h.remote(line, msg.RemReadEx, remSt)
		}
		setups[base+"/kill"] = func(h *harness) []*msg.Message { prep(h); return kill(h) }
	}
	setups["gv/local-readex"] = func(h *harness) []*msg.Message { gv(h); return h.localWrite(line, 1, msg.LocalReadEx) }
	setups["gv/local-upgd"] = func(h *harness) []*msg.Message { gv(h); return h.localWrite(line, 0, msg.LocalUpgd) }
	setups["gv/rem-upgd"] = func(h *harness) []*msg.Message { gv(h); return h.remote(line, msg.RemUpgd, 2) }
	setups["gv/kill"] = func(h *harness) []*msg.Message { gv(h); return kill(h) }
	setups["lv/rem-readex"] = func(h *harness) []*msg.Message { return h.remote(line, msg.RemReadEx, 2) }

	// A reply is built from the id of the transition's last network message
	// (its intervention or invalidation); stale() offsets it.
	type reply func(h *harness, id uint64) *msg.Message
	resp := func(h *harness, id uint64) *msg.Message {
		return &msg.Message{Type: msg.IntervResp, Line: line, Home: 0,
			SrcMod: 1, SrcStation: 0, Data: 55}
	}
	miss := func(h *harness, id uint64) *msg.Message {
		return &msg.Message{Type: msg.IntervMiss, Line: line, Home: 0, SrcMod: 1, SrcStation: 0}
	}
	lwb := func(p int) reply {
		return func(h *harness, id uint64) *msg.Message {
			return &msg.Message{Type: msg.LocalWrBack, Line: line, Home: 0,
				SrcMod: p, SrcStation: 0, Data: 31}
		}
	}
	rwb := func(st int) reply {
		return func(h *harness, id uint64) *msg.Message {
			return &msg.Message{Type: msg.RemWrBack, Line: line, Home: 0,
				SrcMod: h.g.ModRI(), SrcStation: st, Data: 31}
		}
	}
	net := func(k msg.Type) reply {
		return func(h *harness, id uint64) *msg.Message {
			x := &msg.Message{Type: k, Line: line, Home: 0,
				SrcMod: h.g.ModRI(), SrcStation: 2, TxnID: id}
			if k.CarriesData() {
				x.Data = 66
			}
			return x
		}
	}
	inval := func(h *harness, id uint64) *msg.Message {
		return &msg.Message{Type: msg.Invalidate, Line: line, Home: 0, SrcStation: 0, TxnID: id}
	}
	netMiss := net(msg.NetIntervMiss)
	stale := func(r reply) reply {
		return func(h *harness, id uint64) *msg.Message { return r(h, id+1) }
	}

	type row struct {
		name    string
		setup   string
		noSC    bool
		replies []reply
		out     []msg.Type
		sent    uint64 // data every data-carrying output holds
		state   DirState
		locked  bool
		procs   uint16
		mask    []int // exact routing mask, as stations
		data    uint64
	}
	var rows []row
	// both adds the row and its twin with the first two replies swapped:
	// a miss and the write-back it waits for can arrive in either order.
	both := func(r row) {
		rows = append(rows, r)
		s := r
		s.name += "/swapped"
		s.replies = append([]reply{r.replies[1], r.replies[0]}, r.replies[2:]...)
		rows = append(rows, s)
	}
	add := func(rs ...row) { rows = append(rows, rs...) }

	// ---- bus intervention answered by the owner's dirty copy ----
	add(
		row{name: "li/local-read/resp", setup: "li/local-read", replies: []reply{resp},
			// The requester snarfed the response; the line never left the
			// station, so it settles LV.
			state: LV, procs: 0b0011, mask: []int{0}, data: 55},
		row{name: "li/local-readex/resp", setup: "li/local-readex", replies: []reply{resp},
			// Ownership moved on the bus; DRAM stays stale.
			state: LI, procs: 0b0001, mask: []int{0}, data: 7},
		row{name: "li/rem-read/resp", setup: "li/rem-read", replies: []reply{resp},
			out: []msg.Type{msg.NetData}, sent: 55,
			state: GV, procs: 0b0010, mask: []int{0, 2}, data: 55},
		row{name: "li/rem-readex/resp", setup: "li/rem-readex", replies: []reply{resp},
			out: []msg.Type{msg.NetDataEx}, sent: 55,
			state: GI, procs: 0, mask: []int{2}, data: 7},
		row{name: "li/kill/resp", setup: "li/kill", replies: []reply{resp},
			out:   []msg.Type{msg.NetInterrupt},
			state: LV, procs: 0, mask: []int{0}, data: 55},
	)

	// ---- bus intervention missed: the owner's write-back completes it ----
	both(row{name: "li/local-read/miss-wb", setup: "li/local-read", replies: []reply{miss, lwb(1)},
		// Answered from the write-back; GV although only the home holds it.
		out: []msg.Type{msg.ProcData}, sent: 31,
		state: GV, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "li/rem-read/miss-wb", setup: "li/rem-read", replies: []reply{miss, lwb(1)},
		out: []msg.Type{msg.NetData}, sent: 31,
		state: GV, procs: 0, mask: []int{0, 2}, data: 31})
	both(row{name: "li/local-readex/miss-wb", setup: "li/local-readex", replies: []reply{miss, lwb(1)},
		// An exclusive completion after a miss invalidates the old owner's
		// station with a sequenced multicast and waits for it.
		out:   []msg.Type{msg.Invalidate},
		state: LI, locked: true, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "li/local-readex/miss-wb-inval", setup: "li/local-readex", replies: []reply{miss, lwb(1), inval},
		out: []msg.Type{msg.Invalidate, msg.ProcDataEx}, sent: 31,
		state: LI, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "li/local-readex/miss-wb-no-sc", setup: "li/local-readex", noSC: true, replies: []reply{miss, lwb(1)},
		out: []msg.Type{msg.ProcDataEx, msg.Invalidate}, sent: 31,
		state: LI, locked: true, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "li/local-readex/miss-wb-inval-no-sc", setup: "li/local-readex", noSC: true,
		replies: []reply{miss, lwb(1), inval},
		// Granted early; the write-back came from the old owner, not the
		// writer, so the writer still owns the line.
		out: []msg.Type{msg.ProcDataEx, msg.Invalidate}, sent: 31,
		state: LI, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "li/rem-readex/miss-wb", setup: "li/rem-readex", replies: []reply{miss, lwb(1)},
		out: []msg.Type{msg.NetDataEx, msg.Invalidate}, sent: 31,
		state: LI, locked: true, procs: 0, mask: []int{0}, data: 31})
	both(row{name: "li/rem-readex/miss-wb-inval", setup: "li/rem-readex", replies: []reply{miss, lwb(1), inval},
		out: []msg.Type{msg.NetDataEx, msg.Invalidate}, sent: 31,
		state: GI, procs: 0, mask: []int{2}, data: 31})
	both(row{name: "li/kill/miss-wb-inval", setup: "li/kill", replies: []reply{miss, lwb(1), inval},
		out:   []msg.Type{msg.Invalidate, msg.NetInterrupt},
		state: LV, procs: 0, mask: []int{0}, data: 31})

	// ---- network intervention answered with data ----
	add(
		row{name: "gi/local-read/net-data", setup: "gi/local-read", replies: []reply{net(msg.NetData)},
			out: []msg.Type{msg.ProcData}, sent: 66,
			state: GV, procs: 0b0001, mask: []int{0, 2}, data: 66},
		row{name: "gi/local-readex/net-data-ex", setup: "gi/local-readex", replies: []reply{net(msg.NetDataEx)},
			out: []msg.Type{msg.ProcDataEx}, sent: 66,
			state: LI, procs: 0b0001, mask: []int{0}, data: 7},
		row{name: "gi/rem-read/net-wb-copy", setup: "gi/rem-read", replies: []reply{net(msg.NetWBCopy)},
			// The owner served the requester directly; the copy lands home.
			state: GV, procs: 0, mask: []int{0, 2, 3}, data: 66},
		row{name: "gi/kill/net-data-ex", setup: "gi/kill", replies: []reply{net(msg.NetDataEx)},
			out:   []msg.Type{msg.NetInterrupt},
			state: LV, procs: 0, mask: []int{0}, data: 66},
		row{name: "gi/rem-readex/xfer-done", setup: "gi/rem-readex", replies: []reply{net(msg.NetXferDone)},
			// Ownership moved from station 2 to station 3; DRAM stays stale.
			state: GI, procs: 0, mask: []int{3}, data: 7},
		row{name: "gi/local-read/nak", setup: "gi/local-read", replies: []reply{net(msg.NetNAK)},
			out:   []msg.Type{msg.ProcNAK},
			state: GI, procs: 0, mask: []int{2}, data: 7},
		row{name: "gi/rem-read/nak", setup: "gi/rem-read", replies: []reply{net(msg.NetNAK)},
			out:   []msg.Type{msg.NetNAK},
			state: GI, procs: 0, mask: []int{2}, data: 7},
	)

	// ---- network intervention missed: the owner's write-back completes it ----
	both(row{name: "gi/local-read/miss-wb", setup: "gi/local-read", replies: []reply{netMiss, rwb(2)},
		out: []msg.Type{msg.ProcData}, sent: 31,
		state: GV, procs: 0b0001, mask: []int{0, 2}, data: 31})
	both(row{name: "gi/rem-read/miss-wb", setup: "gi/rem-read", replies: []reply{netMiss, rwb(2)},
		out: []msg.Type{msg.NetData}, sent: 31,
		state: GV, procs: 0, mask: []int{0, 2, 3}, data: 31})
	both(row{name: "gi/local-readex/miss-wb-inval", setup: "gi/local-readex", replies: []reply{netMiss, rwb(2), inval},
		out: []msg.Type{msg.Invalidate, msg.ProcDataEx}, sent: 31,
		state: LI, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "gi/local-readex/miss-wb-inval-no-sc", setup: "gi/local-readex", noSC: true,
		replies: []reply{netMiss, rwb(2), inval},
		out:     []msg.Type{msg.ProcDataEx, msg.Invalidate}, sent: 31,
		state: LI, procs: 0b0001, mask: []int{0}, data: 31})
	both(row{name: "gi/rem-readex/miss-wb", setup: "gi/rem-readex", replies: []reply{netMiss, rwb(2)},
		out: []msg.Type{msg.NetDataEx, msg.Invalidate}, sent: 31,
		state: GI, locked: true, procs: 0, mask: []int{2}, data: 31})
	both(row{name: "gi/rem-readex/miss-wb-inval", setup: "gi/rem-readex", replies: []reply{netMiss, rwb(2), inval},
		out: []msg.Type{msg.NetDataEx, msg.Invalidate}, sent: 31,
		state: GI, procs: 0, mask: []int{3}, data: 31})
	both(row{name: "gi/kill/miss-wb-inval", setup: "gi/kill", replies: []reply{netMiss, rwb(2), inval},
		out:   []msg.Type{msg.Invalidate, msg.NetInterrupt},
		state: LV, procs: 0, mask: []int{0}, data: 31})

	// ---- network intervention NAKed after the owner's write-back ----
	// The owner's NC ejected the line, then locked it again for its own
	// refetch and NAKed the intervention. The write-back holds the only
	// copy, so it lands as an unlocked RemWrBack would, in either order,
	// and the requester retries.
	for _, s := range []struct {
		setup string
		nak   msg.Type
	}{
		{"gi/local-read", msg.ProcNAK}, {"gi/local-readex", msg.ProcNAK}, {"gi/rem-read", msg.NetNAK},
		{"gi/rem-readex", msg.NetNAK}, {"gi/kill", msg.ProcNAK},
	} {
		both(row{name: s.setup + "/wb-nak", setup: s.setup, replies: []reply{rwb(2), net(msg.NetNAK)},
			out:   []msg.Type{s.nak},
			state: GV, procs: 0, mask: []int{0, 2}, data: 31})
	}

	// ---- the invalidation multicast returns home ----
	add(
		row{name: "gv/local-readex/inval", setup: "gv/local-readex", replies: []reply{inval},
			out: []msg.Type{msg.ProcDataEx}, sent: 7,
			state: LI, procs: 0b0010, mask: []int{0}, data: 7},
		row{name: "gv/local-readex/inval-no-sc", setup: "gv/local-readex", noSC: true, replies: []reply{inval},
			// Granted when the multicast left.
			state: LI, procs: 0b0010, mask: []int{0}, data: 7},
		row{name: "gv/local-readex/wb-inval-no-sc", setup: "gv/local-readex", noSC: true,
			replies: []reply{lwb(1), inval},
			// The early-granted writer evicted before the multicast
			// returned: its write-back is current and nobody holds a copy.
			state: LV, procs: 0, mask: []int{0}, data: 31},
		row{name: "gv/local-upgd/inval", setup: "gv/local-upgd", replies: []reply{inval},
			out:   []msg.Type{msg.ProcUpgdAck},
			state: LI, procs: 0b0001, mask: []int{0}, data: 7},
		row{name: "gv/rem-upgd/inval", setup: "gv/rem-upgd", replies: []reply{inval},
			state: GI, procs: 0, mask: []int{2}, data: 7},
		row{name: "lv/rem-readex/inval", setup: "lv/rem-readex", replies: []reply{inval},
			state: GI, procs: 0, mask: []int{2}, data: 7},
		row{name: "lv/rem-readex/wb-inval", setup: "lv/rem-readex", replies: []reply{rwb(2), inval},
			// The remote writer's NC ejected the line while the multicast
			// was in flight.
			state: GV, procs: 0, mask: []int{0, 2}, data: 31},
		row{name: "gv/kill/inval", setup: "gv/kill", replies: []reply{inval},
			out:   []msg.Type{msg.NetInterrupt},
			state: LV, procs: 0, mask: []int{0}, data: 7},
	)

	// ---- stale replies change nothing ----
	for _, k := range []msg.Type{msg.Invalidate, msg.IntervResp, msg.IntervMiss, msg.NetData, msg.NetDataEx,
		msg.NetXferDone, msg.NetIntervMiss, msg.NetNAK} {
		r := net(k)
		switch k {
		case msg.Invalidate:
			r = inval
		case msg.IntervResp:
			// Unreachable: the line stays locked until its intervention
			// is answered, so a response never finds it unlocked.
			r = resp
		case msg.IntervMiss:
			r = miss
		}
		add(row{name: "lv/unlocked-" + k.String(), setup: "lv", replies: []reply{r},
			state: LV, procs: 0, mask: []int{0}, data: 7})
	}
	add(
		row{name: "lv/unlocked-NetWBCopy", setup: "lv", replies: []reply{net(msg.NetWBCopy)},
			// A copy for an already-completed transition still refreshes DRAM.
			state: LV, procs: 0, mask: []int{0}, data: 66},
	)
	for _, r := range []struct {
		name string
		r    reply
	}{
		{"inval", inval}, {"net-data", net(msg.NetData)}, {"net-wb-copy", net(msg.NetWBCopy)},
		{"xfer-done", net(msg.NetXferDone)}, {"nak", net(msg.NetNAK)},
	} {
		add(row{name: "gi/local-read/stale-" + r.name, setup: "gi/local-read", replies: []reply{stale(r.r)},
			state: GI, locked: true, procs: 0, mask: []int{2}, data: 7})
	}
	add(
		row{name: "gi/local-read/stale-miss-wb", setup: "gi/local-read", replies: []reply{stale(netMiss), rwb(2)},
			// A miss for an older transaction does not count: the
			// write-back waits for this transition's own miss.
			state: GI, locked: true, procs: 0, mask: []int{2}, data: 7},
		row{name: "gi/local-read/foreign-wb-miss", setup: "gi/local-read", replies: []reply{rwb(3), netMiss},
			// Only the targeted owner's write-back enters the transition.
			state: GI, locked: true, procs: 0, mask: []int{2}, data: 7},
		row{name: "gi/rem-readex/miss-wb-dup-miss", setup: "gi/rem-readex", replies: []reply{netMiss, rwb(2), netMiss},
			// A duplicated miss must not complete the transition twice.
			out: []msg.Type{msg.NetDataEx, msg.Invalidate}, sent: 31,
			state: GI, locked: true, procs: 0, mask: []int{2}, data: 31},
	)

	for _, tc := range rows {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			h.m.p.SCLocking = !tc.noSC
			h.m.PokeData(line, 7)
			var id uint64
			lastID := func(out []*msg.Message) {
				for _, o := range out {
					if o.TxnID != 0 && (o.Type == msg.Invalidate || o.Type == msg.NetIntervShared || o.Type == msg.NetIntervEx) {
						id = o.TxnID
					}
				}
			}
			lastID(setups[tc.setup](h))
			var out []*msg.Message
			for _, r := range tc.replies {
				o := h.deliver(r(h, id))
				lastID(o)
				out = append(out, o...)
			}
			expectTypes(t, out, tc.out...)
			for _, o := range out {
				if o.Type.CarriesData() && o.Data != tc.sent {
					t.Errorf("%v carries %d, want %d", o.Type, o.Data, tc.sent)
				}
			}
			st, locked, mask, procs, data := h.m.Peek(line)
			if st != tc.state {
				t.Errorf("state %v, want %v", st, tc.state)
			}
			if locked != tc.locked {
				t.Errorf("locked %v, want %v", locked, tc.locked)
			}
			if procs != tc.procs {
				t.Errorf("procs %04b, want %04b", procs, tc.procs)
			}
			if want := h.g.MaskForStations(tc.mask...); mask != want {
				t.Errorf("mask %v, want %v (stations %v)", mask, want, tc.mask)
			}
			if data != tc.data {
				t.Errorf("DRAM %d, want %d", data, tc.data)
			}
		})
	}
}
