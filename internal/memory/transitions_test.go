package memory

import (
	"testing"

	"numachine/internal/msg"
)

// TestDirectoryTransitionTable walks the Figure 5 matrix: every setup
// below crossed with the request kinds that reach it — the local and
// remote reads, exclusive reads, upgrades and write-backs, the special
// write that follows a misfired optimistic upgrade, and the kill special
// function — plus the no-SC-locking grants of the GV exclusive path. Each
// row asserts the immediate response kinds, the next directory state, the
// lock bit, the processor-mask/routing-mask updates, and that
// Stats.Interventions counts exactly the bus interventions issued. Cells
// the protocol cannot reach (e.g. a network write-back against a line in
// LI) are listed with the module's defensive behavior, so a refactor that
// changes it is flagged rather than silently absorbed.
//
// Setups (the line under test is 0x100, home station 0):
//
//	lv-fresh   LV, no sharers (directory's reset state)
//	lv-shared  LV, local procs 0 and 1 share
//	li         LI, local proc 1 owns
//	gv         GV, local proc 0 and station 2 share
//	gi         GI, station 2 owns
//	locked     LI intervention in flight (proc 0 read proc 1's line)
func TestDirectoryTransitionTable(t *testing.T) {
	const line = 0x100

	setups := map[string]func(h *harness){
		"lv-fresh":  func(h *harness) {},
		"lv-shared": func(h *harness) { h.localRead(line, 0); h.localRead(line, 1) },
		"li":        func(h *harness) { h.localWrite(line, 1, msg.LocalReadEx) },
		"gv": func(h *harness) {
			h.localRead(line, 0)
			h.remote(line, msg.RemRead, 2)
		},
		"gi": func(h *harness) {
			out := h.remote(line, msg.RemReadEx, 2)
			// Finalize: the invalidation multicast returns home.
			h.deliver(&msg.Message{Type: msg.Invalidate, Line: line, Home: 0,
				SrcStation: 0, TxnID: out[len(out)-1].TxnID})
		},
		"locked": func(h *harness) {
			h.localWrite(line, 1, msg.LocalReadEx)
			h.localRead(line, 0)
		},
	}

	localRead := func(p int) func(h *harness) []*msg.Message {
		return func(h *harness) []*msg.Message { return h.localRead(line, p) }
	}
	localWrite := func(p int, k msg.Type) func(h *harness) []*msg.Message {
		return func(h *harness) []*msg.Message { return h.localWrite(line, p, k) }
	}
	localWB := func(p int, data uint64) func(h *harness) []*msg.Message {
		return func(h *harness) []*msg.Message {
			return h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: line, Home: 0,
				SrcMod: p, SrcStation: 0, Data: data})
		}
	}
	remote := func(k msg.Type, st int) func(h *harness) []*msg.Message {
		return func(h *harness) []*msg.Message { return h.remote(line, k, st) }
	}
	remoteWB := func(st int, data uint64) func(h *harness) []*msg.Message {
		return func(h *harness) []*msg.Message {
			return h.deliver(&msg.Message{Type: msg.RemWrBack, Line: line, Home: 0,
				SrcMod: h.g.ModRI(), SrcStation: st, Data: data})
		}
	}
	// kill is the purge special function issued by local processor 2.
	kill := func(h *harness) []*msg.Message {
		return h.deliver(&msg.Message{Type: msg.KillReq, Line: line, Home: 0,
			SrcMod: 2, SrcStation: 0, Requester: 2, ReqStation: 0})
	}

	cases := []struct {
		name       string
		setup      string
		noSC       bool // probe with Params.SCLocking off
		probe      func(h *harness) []*msg.Message
		out        []msg.Type
		wantState  DirState
		wantLocked bool
		wantProcs  int
		// wantMask lists stations the routing mask must cover (nil: skip).
		wantMask []int
	}{
		// ---- LV, no sharers ----
		{name: "lv-fresh/local-read", setup: "lv-fresh", probe: localRead(1),
			out: []msg.Type{msg.ProcData}, wantState: LV, wantProcs: 0b0010},
		{name: "lv-fresh/local-readex", setup: "lv-fresh", probe: localWrite(2, msg.LocalReadEx),
			out: []msg.Type{msg.ProcDataEx}, wantState: LI, wantProcs: 0b0100},
		{name: "lv-fresh/local-upgd-nonsharer", setup: "lv-fresh", probe: localWrite(2, msg.LocalUpgd),
			// The directory cannot confirm the claimed copy: data travels.
			out: []msg.Type{msg.ProcDataEx}, wantState: LI, wantProcs: 0b0100},
		{name: "lv-fresh/local-wrback", setup: "lv-fresh", probe: localWB(0, 55),
			// Defensive: a spurious write-back just deposits data.
			out: nil, wantState: LV, wantProcs: 0},
		{name: "lv-fresh/rem-read", setup: "lv-fresh", probe: remote(msg.RemRead, 3),
			out: []msg.Type{msg.NetData}, wantState: GV, wantProcs: 0, wantMask: []int{0, 3}},
		{name: "lv-fresh/rem-readex", setup: "lv-fresh", probe: remote(msg.RemReadEx, 2),
			// Data first, then the sequenced invalidation (§2.3).
			out: []msg.Type{msg.NetDataEx, msg.Invalidate}, wantState: LV, wantLocked: true, wantProcs: 0},
		{name: "lv-fresh/rem-upgd-nonsharer", setup: "lv-fresh", probe: remote(msg.RemUpgd, 3),
			out: []msg.Type{msg.NetDataEx, msg.Invalidate}, wantState: LV, wantLocked: true, wantProcs: 0},
		{name: "lv-fresh/rem-wrback", setup: "lv-fresh", probe: remoteWB(2, 66),
			// Defensive: treat as an ejection write-back of a shared copy.
			out: nil, wantState: GV, wantMask: []int{0, 2}},
		{name: "lv-fresh/special-wr", setup: "lv-fresh", probe: remote(msg.SpecialWrReq, 3),
			// No owner to confirm: served as a remote exclusive read.
			out: []msg.Type{msg.NetDataEx, msg.Invalidate}, wantState: LV, wantLocked: true, wantProcs: 0},
		{name: "lv-fresh/kill", setup: "lv-fresh", probe: kill,
			// Nothing cached: the completion interrupt goes out at once.
			out: []msg.Type{msg.NetInterrupt}, wantState: LV, wantProcs: 0},

		// ---- LV, local sharers 0 and 1 ----
		{name: "lv-shared/local-read", setup: "lv-shared", probe: localRead(2),
			out: []msg.Type{msg.ProcData}, wantState: LV, wantProcs: 0b0111},
		{name: "lv-shared/local-readex", setup: "lv-shared", probe: localWrite(2, msg.LocalReadEx),
			out: []msg.Type{msg.BusInval, msg.ProcDataEx}, wantState: LI, wantProcs: 0b0100},
		{name: "lv-shared/local-upgd-sharer", setup: "lv-shared", probe: localWrite(1, msg.LocalUpgd),
			// Sharer upgrade: ack only, the other sharer is invalidated.
			out: []msg.Type{msg.BusInval, msg.ProcUpgdAck}, wantState: LI, wantProcs: 0b0010},
		{name: "lv-shared/local-wrback", setup: "lv-shared", probe: localWB(0, 55),
			out: nil, wantState: LV, wantProcs: 0b0010},
		{name: "lv-shared/rem-read", setup: "lv-shared", probe: remote(msg.RemRead, 3),
			out: []msg.Type{msg.NetData}, wantState: GV, wantProcs: 0b0011, wantMask: []int{0, 3}},
		{name: "lv-shared/rem-readex", setup: "lv-shared", probe: remote(msg.RemReadEx, 2),
			// Local sharers die on the bus while the data travels.
			out:       []msg.Type{msg.NetDataEx, msg.BusInval, msg.Invalidate},
			wantState: LV, wantLocked: true, wantProcs: 0},
		{name: "lv-shared/kill", setup: "lv-shared", probe: kill,
			out: []msg.Type{msg.BusInval, msg.NetInterrupt}, wantState: LV, wantProcs: 0},

		// ---- LI, proc 1 owns ----
		{name: "li/local-read", setup: "li", probe: localRead(0),
			out: []msg.Type{msg.BusIntervention}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "li/local-read-owner", setup: "li", probe: localRead(1),
			// The recorded owner lost its copy: re-supply exclusively.
			out: []msg.Type{msg.ProcDataEx}, wantState: LI, wantProcs: 0b0010},
		{name: "li/local-readex", setup: "li", probe: localWrite(0, msg.LocalReadEx),
			out: []msg.Type{msg.BusIntervention}, wantState: LI, wantLocked: true, wantProcs: 0b0001},
		{name: "li/local-upgd-owner", setup: "li", probe: localWrite(1, msg.LocalUpgd),
			out: []msg.Type{msg.ProcDataEx}, wantState: LI, wantProcs: 0b0010},
		{name: "li/local-wrback", setup: "li", probe: localWB(1, 99),
			out: nil, wantState: LV, wantProcs: 0},
		{name: "li/rem-read", setup: "li", probe: remote(msg.RemRead, 2),
			out: []msg.Type{msg.BusIntervention}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "li/rem-readex", setup: "li", probe: remote(msg.RemReadEx, 2),
			out: []msg.Type{msg.BusIntervention}, wantState: LI, wantLocked: true, wantProcs: 0},
		{name: "li/kill", setup: "li", probe: kill,
			out: []msg.Type{msg.BusIntervention}, wantState: LI, wantLocked: true, wantProcs: 0},

		// ---- GV, proc 0 and station 2 share ----
		{name: "gv/local-read", setup: "gv", probe: localRead(1),
			out: []msg.Type{msg.ProcData}, wantState: GV, wantProcs: 0b0011},
		{name: "gv/local-readex", setup: "gv", probe: localWrite(1, msg.LocalReadEx),
			// Remote sharers: lock, invalidate everywhere; SCLocking holds
			// the grant until the multicast returns.
			out:       []msg.Type{msg.BusInval, msg.Invalidate},
			wantState: GV, wantLocked: true, wantProcs: 0b0010},
		{name: "gv/local-upgd-sharer", setup: "gv", probe: localWrite(0, msg.LocalUpgd),
			// Proc 0 is the only local sharer: no bus invalidation, only the
			// network multicast.
			out:       []msg.Type{msg.Invalidate},
			wantState: GV, wantLocked: true, wantProcs: 0b0001},
		{name: "gv/local-wrback", setup: "gv", probe: localWB(0, 55),
			out: nil, wantState: GV, wantProcs: 0},
		{name: "gv/rem-read", setup: "gv", probe: remote(msg.RemRead, 3),
			out: []msg.Type{msg.NetData}, wantState: GV, wantProcs: 0b0001, wantMask: []int{0, 2, 3}},
		{name: "gv/rem-readex", setup: "gv", probe: remote(msg.RemReadEx, 3),
			out:       []msg.Type{msg.NetDataEx, msg.BusInval, msg.Invalidate},
			wantState: GV, wantLocked: true, wantProcs: 0},
		{name: "gv/rem-upgd-sharer", setup: "gv", probe: remote(msg.RemUpgd, 2),
			// Optimistic: the mask confirms the claimed copy, ack only.
			out:       []msg.Type{msg.NetUpgdAck, msg.BusInval, msg.Invalidate},
			wantState: GV, wantLocked: true, wantProcs: 0},
		{name: "gv/rem-wrback", setup: "gv", probe: remoteWB(2, 66),
			out: nil, wantState: GV, wantProcs: 0b0001, wantMask: []int{0, 2}},
		{name: "gv/local-readex-no-sc", setup: "gv", noSC: true, probe: localWrite(1, msg.LocalReadEx),
			// Without SC locking the writer is granted before the
			// multicast returns; the line still waits for it.
			out:       []msg.Type{msg.BusInval, msg.Invalidate, msg.ProcDataEx},
			wantState: GV, wantLocked: true, wantProcs: 0b0010},
		{name: "gv/local-upgd-sharer-no-sc", setup: "gv", noSC: true, probe: localWrite(0, msg.LocalUpgd),
			out:       []msg.Type{msg.Invalidate, msg.ProcUpgdAck},
			wantState: GV, wantLocked: true, wantProcs: 0b0001},
		{name: "gv/kill", setup: "gv", probe: kill,
			// Remote sharers: the kill waits for its multicast to return.
			out:       []msg.Type{msg.BusInval, msg.Invalidate},
			wantState: GV, wantLocked: true, wantProcs: 0},

		// ---- GI, station 2 owns ----
		{name: "gi/local-read", setup: "gi", probe: localRead(0),
			out: []msg.Type{msg.NetIntervShared}, wantState: GI, wantLocked: true},
		{name: "gi/local-readex", setup: "gi", probe: localWrite(0, msg.LocalReadEx),
			out: []msg.Type{msg.NetIntervEx}, wantState: GI, wantLocked: true},
		{name: "gi/rem-read", setup: "gi", probe: remote(msg.RemRead, 3),
			out: []msg.Type{msg.NetIntervShared}, wantState: GI, wantLocked: true},
		{name: "gi/rem-readex", setup: "gi", probe: remote(msg.RemReadEx, 3),
			out: []msg.Type{msg.NetIntervEx}, wantState: GI, wantLocked: true},
		{name: "gi/rem-upgd", setup: "gi", probe: remote(msg.RemUpgd, 3),
			// GI cannot confirm the claimed copy: falls back to a full
			// exclusive intervention.
			out: []msg.Type{msg.NetIntervEx}, wantState: GI, wantLocked: true},
		{name: "gi/rem-read-owner", setup: "gi", probe: remote(msg.RemRead, 2),
			// The owner itself asking means its NC ejected the line: a
			// false remote, bounced back immediately (§4.6).
			out: []msg.Type{msg.FalseRemoteResp}, wantState: GI},
		{name: "gi/rem-wrback", setup: "gi", probe: remoteWB(2, 66),
			// Figure 5: GI -> GV on the owner's ejection write-back.
			out: nil, wantState: GV, wantMask: []int{0, 2}},
		{name: "gi/special-wr-owner", setup: "gi", probe: remote(msg.SpecialWrReq, 2),
			// The optimistic ack already made station 2 the owner: DRAM's
			// value travels and the line stays unlocked (§4.6).
			out: []msg.Type{msg.NetDataEx}, wantState: GI},
		{name: "gi/special-wr", setup: "gi", probe: remote(msg.SpecialWrReq, 3),
			out: []msg.Type{msg.NetIntervEx}, wantState: GI, wantLocked: true},
		{name: "gi/kill", setup: "gi", probe: kill,
			out: []msg.Type{msg.NetIntervEx}, wantState: GI, wantLocked: true},

		// ---- locked: every request NAKs ----
		{name: "locked/local-read", setup: "locked", probe: localRead(2),
			out: []msg.Type{msg.ProcNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/local-readex", setup: "locked", probe: localWrite(2, msg.LocalReadEx),
			out: []msg.Type{msg.ProcNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/local-upgd", setup: "locked", probe: localWrite(2, msg.LocalUpgd),
			out: []msg.Type{msg.ProcNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/rem-read", setup: "locked", probe: remote(msg.RemRead, 2),
			out: []msg.Type{msg.NetNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/rem-readex", setup: "locked", probe: remote(msg.RemReadEx, 2),
			out: []msg.Type{msg.NetNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/rem-upgd", setup: "locked", probe: remote(msg.RemUpgd, 2),
			out: []msg.Type{msg.NetNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/special-wr", setup: "locked", probe: remote(msg.SpecialWrReq, 2),
			out: []msg.Type{msg.NetNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
		{name: "locked/kill", setup: "locked", probe: kill,
			out: []msg.Type{msg.ProcNAK}, wantState: LI, wantLocked: true, wantProcs: 0b0010},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			setups[tc.setup](h)
			h.m.p.SCLocking = !tc.noSC
			interv := h.m.Stats.Interventions
			out := tc.probe(h)
			expectTypes(t, out, tc.out...)
			// Interventions counts bus interventions only: a network
			// intervention (NetIntervShared/Ex) adds nothing.
			if got, want := h.m.Stats.Interventions-interv, int64(countType(out, msg.BusIntervention)); got != want {
				t.Errorf("Interventions +%d, want +%d", got, want)
			}
			st, locked, mask, procs, _ := h.m.Peek(line)
			if st != tc.wantState {
				t.Errorf("state %v, want %v", st, tc.wantState)
			}
			if locked != tc.wantLocked {
				t.Errorf("locked %v, want %v", locked, tc.wantLocked)
			}
			if procs != uint16(tc.wantProcs) {
				t.Errorf("procs %04b, want %04b", procs, tc.wantProcs)
			}
			for _, s := range tc.wantMask {
				if !mask.Contains(h.g, s) {
					t.Errorf("mask %v must cover station %d", mask, s)
				}
			}
		})
	}
}

func countType(out []*msg.Message, t msg.Type) int {
	n := 0
	for _, m := range out {
		if m.Type == t {
			n++
		}
	}
	return n
}
