// Package memory implements the NUMAchine memory module (§3.1.2): DRAM
// storage, the SRAM directory holding a routing mask, a local processor
// mask and state bits per cache line, and the hardware cache coherence
// block that implements the memory side of the two-level protocol — the
// state machine of Figure 5 with states LV, LI, GV, GI plus locked
// versions. Every request enters through request; every reply to a locked
// line passes one staleness guard (reply), and the transition finishes in
// answer, which sends the requester its data, and settle, which writes
// the final directory state and unlocks.
//
// The directory design follows §2.3 exactly: the network level is a full
// directory of (inexact) routing masks whose storage grows logarithmically
// with system size; the station level is a per-processor bit mask. The
// module also provides the "special functions" of §3.1.2 (kill operations
// and coherence-bypassing accesses) used by system software.
//
// Concurrency contract: a Module is station-local. Tick consumes its own
// input queue and pushes every response — including network messages for
// other stations — onto its own outbound bus queue; cross-station
// delivery happens cycles later through the ring interface. The module
// may therefore tick on its station's phase-1 worker of the
// station-parallel cycle loop.
package memory

import (
	"fmt"
	"math/bits"

	"numachine/internal/bus"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// DirState is the four-state line status kept in memory and network-cache
// directories (§2.3). The locked variants are represented by a separate
// lock bit, as in the hardware.
type DirState uint8

const (
	// LV (local valid): valid copies exist only on this station; memory and
	// the processors in the processor mask hold the line.
	LV DirState = iota
	// LI (local invalid): exactly one local secondary cache holds the line,
	// dirty; memory's copy is stale.
	LI
	// GV (global valid): memory holds a valid copy, shared by the stations
	// in the routing mask.
	GV
	// GI (global invalid): no valid copy on this station; a remote network
	// cache identified (exactly) by the routing mask owns the line.
	GI
)

// String returns the paper's mnemonic.
func (s DirState) String() string { return [...]string{"LV", "LI", "GV", "GI"}[s] }

// entry is one directory entry plus the line's DRAM contents.
type entry struct {
	state  DirState
	locked bool
	mask   topo.RoutingMask // network-level directory (stations with copies / owner)
	procs  uint16           // station-level directory (local processor copies)
	data   uint64           // DRAM contents (the simulator's 64-bit line value)
	txn    *txn
}

// txn tracks an in-flight transition while the line is locked.
type txn struct {
	kind       msg.Type // the request that started the transition
	requester  int      // global processor id (-1 when remote)
	reqStation int      // station to receive the response
	id         uint64

	waitInval bool // completes when the invalidation multicast returns
	granted   bool // response already sent (no-SC-locking mode)
	wbSeen    bool // a write-back for the line arrived while locked
	wbData    uint64
	wbProc    int  // local processor that wrote back (-1 otherwise)
	wbStation int  // station whose NC wrote back (-1 otherwise)
	missSeen  bool // intervention target no longer held the line
	upgdAck   bool // respond with ProcUpgdAck rather than data

	// netInterv marks transitions driven by a network intervention, and
	// ownerStation names the station it targeted. Only that station (or,
	// for granted transitions, the requesting station) may satisfy the
	// transition with a RemWrBack: anything else is a stale or duplicated
	// write-back the fault injector replayed.
	netInterv    bool
	ownerStation int
}

// Stats is the memory module's dedicated counters (§3.3.1) and, summed
// over stations field by field, the Mem section of core.Results: a counter
// added here is reported with no other edit.
type Stats struct {
	Transactions     int64
	NAKs             int64
	InvalidatesSent  int64 // network invalidation multicasts
	Interventions    int64 // bus interventions issued (network ones are not counted)
	OptimisticAcks   int64 // upgrades answered without data (§2.3)
	UpgradeDataSends int64 // upgrades that had to carry data
	SpecialWrServed  int64 // misfired optimistic upgrades (§4.6)
	FalseRemotes     int64 // false remote requests bounced (Table 3)
}

// Module is one station's memory module: a bus port (FIFOs, occupancy,
// Fault, Tr, Msgs, Station) in front of the directory.
type Module struct {
	bus.Port

	g topo.Geometry
	p *sim.Params // the machine's, shared by every component; read-only

	dir    map[uint64]*entry // nil until the first entry
	txnSeq uint64
	locks  int // currently locked lines (kept in step by lock/unlock)

	// txns recycles per-transition directory state: every locked line
	// takes a txn at lock and releases it at unlock, so steady state
	// allocates none. lock overwrites a fresh record wholesale (`*p = t`)
	// so no field survives reuse.
	txns msg.Pool[txn]

	// Mut selects a deliberate protocol defect for mutation testing
	// (MutNone in production; see mutation.go).
	Mut Mutation

	Stats Stats
	Hist  monitor.Table // coherence histogram (§3.3.3), laid out by HomeHist
}

// Init builds the memory module for a station in place, in a zero Module;
// p is read, never written.
func (m *Module) Init(g topo.Geometry, p *sim.Params, station int) {
	m.g, m.p = g, p
	m.Addr(g, station, g.ModMem())
	m.Hist = HomeHist.Table("memory", station)
}

// PendingLocks returns the number of locked lines. Maintained
// incrementally by lock/unlock: the machine's quiescence check (and, with
// the fast-hit horizon, every deep-idle window computation) calls this on
// hot paths, so it must not scan the directory.
func (m *Module) PendingLocks() int { return m.locks }

// NextWork reports the earliest cycle at or after now at which Tick has
// work (see bus.Port.ReadyAt).
func (m *Module) NextWork(now int64) int64 { return m.ReadyAt(now, sim.Never) }

// Tick advances the directory pipeline one cycle unless an injected
// outage freezes it.
func (m *Module) Tick(now int64) {
	if !m.Fault.Stalled(now) {
		m.Step(now, m.handle, m.cost)
	}
}

// cost is the directory access time of a message of type t, plus a DRAM
// access when data moves. Forwarded or collected data is pipelined into
// DRAM alongside the response, so only its directory pass is on the
// critical path.
func (m *Module) cost(t msg.Type) int {
	switch t {
	case msg.IntervResp, msg.NetWBCopy, msg.NetData, msg.NetDataEx:
		return m.p.MemDirCycles
	}
	if t.CarriesData() || t == msg.LocalRead || t == msg.RemRead || t == msg.LocalReadEx || t == msg.RemReadEx {
		return m.p.MemDirCycles + m.p.MemDRAMCycles
	}
	return m.p.MemDirCycles
}

func (m *Module) entry(line uint64) *entry {
	e := m.dir[line]
	if e == nil {
		if m.dir == nil {
			m.dir = make(map[uint64]*entry)
		}
		e = &entry{state: LV, mask: m.g.MaskFor(m.Station)}
		m.dir[line] = e
	}
	return e
}

// Peek exposes directory state for tests and the invariant checker.
func (m *Module) Peek(line uint64) (state DirState, locked bool, mask topo.RoutingMask, procs uint16, data uint64) {
	e := m.entry(line)
	return e.state, e.locked, e.mask, e.procs, e.data
}

// PokeData writes DRAM directly, bypassing coherence — the software
// back-door of §3.2. Only tests use it.
func (m *Module) PokeData(line uint64, data uint64) { m.entry(line).data = data }

// TxnInfo describes the pending transaction on a line (diagnostics).
func (m *Module) TxnInfo(line uint64) string {
	e := m.dir[line]
	if e == nil || e.txn == nil {
		return "none"
	}
	t := e.txn
	owner := "" // the station a network intervention targeted
	if t.netInterv {
		owner = fmt.Sprintf(" owner=%d", t.ownerStation)
	}
	return fmt.Sprintf("txn{kind=%v req=%d reqSt=%d%s waitInval=%v granted=%v wb=%v miss=%v id=%d}",
		t.kind, t.requester, t.reqStation, owner, t.waitInval, t.granted, t.wbSeen, t.missSeen, t.id)
}

// ForEachLine visits every directory entry (invariant checker support).
func (m *Module) ForEachLine(fn func(line uint64, state DirState, locked bool, procs uint16, data uint64)) {
	for line, e := range m.dir {
		fn(line, e.state, e.locked, e.procs, e.data)
	}
}

func (m *Module) nextTxn() uint64 {
	m.txnSeq++
	return uint64(m.Station)<<40 | m.txnSeq
}

// ---- output helpers ----

func (m *Module) homeMask() topo.RoutingMask { return m.g.MaskFor(m.Station) }

// netInval queues the single invalidation multicast of §2.3. The mask
// always includes the requesting station and the home station; the packet
// ascends to the sequencing point of the lowest ring level covering the
// mask, then descends to every covered station.
func (m *Module) netInval(line uint64, mask topo.RoutingMask, id uint64) {
	if m.Mut == MutSkipNetInval {
		return
	}
	m.Stats.InvalidatesSent++
	inv := m.ToStation(msg.Invalidate, line, m.Station, -1)
	inv.Mask, inv.TxnID = mask, id
}

func (m *Module) nak(x *msg.Message) {
	m.Stats.NAKs++
	if x.SrcStation == m.Station && m.g.IsProcMod(x.SrcMod) {
		m.ToProc(msg.ProcNAK, x.Line, m.Station, x.SrcMod, 0).NakOf = x.Type
		return
	}
	n := m.ToStation(msg.NetNAK, x.Line, m.Station, x.SrcStation)
	n.Requester, n.ReqStation, n.TxnID, n.NakOf = x.Requester, x.ReqStation, x.TxnID, x.Type
}

func (m *Module) onlyBit(procs uint16, line uint64, now int64) int {
	if bits.OnesCount16(procs) != 1 {
		panic(fmt.Sprintf("memory[%d]: line %#x at cycle %d: processor mask %04b does not name exactly one owner",
			m.Station, line, now, procs))
	}
	return bits.TrailingZeros16(procs)
}

// lock starts the transition t on e: a pooled copy of t, with a freshly
// drawn id, becomes the line's txn.
func (m *Module) lock(e *entry, t txn) *txn {
	if e.locked {
		panic("memory: locking an already locked line")
	}
	p := m.txns.Get()
	*p = t
	p.id = m.nextTxn()
	e.locked = true
	e.txn = p
	m.locks++
	return p
}

func (m *Module) unlock(e *entry) {
	t := e.txn
	e.locked = false
	e.txn = nil
	m.locks--
	m.txns.Put(t)
}

// ---- the Figure 5 state machine ----

func (m *Module) handle(x *msg.Message, now int64) {
	e := m.entry(x.Line)
	HomeHist.Record(&m.Hist, x.Type, HistCol(e.state, e.locked))
	m.Stats.Transactions++
	if m.Tr != nil {
		st := int32(e.state)
		if e.locked {
			st |= 4
		}
		m.Tr.Emit(now, trace.KindMemTxn, x.Line, x.TxnID, int32(x.Type), st)
	}
	switch x.Type {
	case msg.LocalRead, msg.LocalReadEx, msg.LocalUpgd, msg.RemRead, msg.RemReadEx,
		msg.RemUpgd, msg.SpecialWrReq, msg.KillReq:
		m.request(e, x, now)
	case msg.LocalWrBack:
		m.localWrBack(e, x)
	case msg.RemWrBack:
		m.remWrBack(e, x)
	case msg.Invalidate, msg.IntervResp, msg.IntervMiss, msg.NetData, msg.NetDataEx,
		msg.NetWBCopy, msg.NetXferDone, msg.NetIntervMiss, msg.NetNAK:
		m.reply(e, x)
	default:
		panic(fmt.Sprintf("memory[%d]: unexpected message %v", m.Station, x))
	}
}

// request serves the eight request types: LocalRead, LocalReadEx,
// LocalUpgd, RemRead, RemReadEx, RemUpgd, SpecialWrReq and the kill
// special function (§3.1.2 / §3.2), whose completion is an interrupt to
// the requesting processor. The line's state picks the plan: LI recalls
// the line from its local owner with a bus intervention, GI from its
// remote owner with a network intervention, and LV and GV answer a shared
// request from DRAM or take the exclusive grant, which invalidates every
// other copy. The request picks only the message types and destinations.
// A transition that must wait for a reply locks the line; settle finishes
// it by the txn kind recorded here.
func (m *Module) request(e *entry, x *msg.Message, now int64) {
	src, req := x.SrcStation, x.SrcMod
	remote := x.Type == msg.RemRead || x.Type == msg.RemReadEx || x.Type == msg.RemUpgd
	if remote && e.state == GI {
		// The owner the directory names asks for its own line: its NC
		// dropped the entry, and the dirty copy is in a local L2 or on its
		// way home as a write-back. FalseRemoteResp sends the NC to recover
		// on its own bus (§4.6). The bounce holds even while the line is
		// locked: the lock then belongs to an intervention that the
		// owner's NC, locked on this very refetch, is about to NAK, and a
		// NAK here would leave each waiting on the other. Without it barnes
		// 64/256 (L2 64, NC 64) and 64/1024 (L2 128, NC 128) stop making
		// progress at cycle 6 M, although netNAKArrival keeps the owner's
		// write-back.
		if owner, ok := e.mask.Exact(m.g); ok && owner == src {
			m.Stats.FalseRemotes++
			fr := m.ToStation(msg.FalseRemoteResp, x.Line, m.Station, owner)
			fr.Requester, fr.ReqStation, fr.TxnID, fr.NakOf = x.Requester, x.ReqStation, x.TxnID, x.Type
			return
		}
	}
	if e.locked {
		m.nak(x)
		return
	}
	remote = remote || x.Type == msg.SpecialWrReq // its owner is served, not bounced
	kill := x.Type == msg.KillReq
	local := !remote && !kill
	shared := x.Type == msg.LocalRead || x.Type == msg.RemRead

	// t is the transition should the line lock: who the response goes to
	// and the kind it completes under.
	t := txn{kind: x.Type, requester: x.Requester, reqStation: m.Station}
	if remote {
		t.requester, t.reqStation = -1, src
	} else if kill {
		t.reqStation = x.ReqStation
	}
	var keep uint16 // the copy an exclusive grant leaves: a local writer's
	if local && !shared {
		keep = 1 << uint(req)
	}
	optimistic := false
	switch x.Type {
	case msg.LocalUpgd:
		t.kind = msg.LocalReadEx
	case msg.SpecialWrReq:
		t.kind = msg.RemReadEx
		m.Stats.SpecialWrServed++
		if e.state == GI {
			if owner, _ := e.mask.Exact(m.g); owner == src {
				// Ownership was already granted by the optimistic ack; DRAM
				// still holds the last globally-visible value (§4.6).
				d := m.ToStation(msg.NetDataEx, x.Line, m.Station, src)
				d.Requester, d.ReqStation, d.TxnID, d.Data = x.Requester, x.ReqStation, x.TxnID, e.data
				return
			}
		}
	case msg.RemUpgd:
		// The (possibly inexact) mask says the requester still has a valid
		// copy: an acknowledgement suffices (§2.3). Otherwise its copy was
		// invalidated before the upgrade arrived, and data must travel.
		optimistic = e.state == GV && e.mask.Contains(m.g, src) && m.p.OptimisticUpgrades
		if optimistic {
			m.Stats.OptimisticAcks++
		} else {
			m.Stats.UpgradeDataSends++
			t.kind = msg.RemReadEx
		}
	}

	switch e.state {
	case LI:
		owner := m.onlyBit(e.procs, x.Line, now)
		also := -1 // a local requester snarfs the owner's response off the bus
		if local {
			if owner == req {
				// The directory says the requester already owns the line but
				// it re-requested it (an upgrade ack misfired and the copy
				// was lost): supply memory's data, which is the last
				// globally visible value.
				m.ToProc(msg.ProcDataEx, x.Line, m.Station, req, e.data)
				return
			}
			if shared && m.Mut == MutStaleReadLI {
				m.ToProc(msg.ProcData, x.Line, m.Station, req, e.data)
				return
			}
			also = req
		}
		m.lock(e, t)
		m.Stats.Interventions++
		m.BusInterv(x.Line, m.Station, owner, 1<<uint(owner), also, !shared)
		if !shared {
			e.procs = keep // ownership moves to the requester
		}
		return
	case GI:
		owner, ok := e.mask.Exact(m.g)
		if x.Type == msg.LocalRead && (!ok || owner == m.Station) {
			panic(fmt.Sprintf("memory[%d]: line %#x at cycle %d: GI with non-exact or local owner %v",
				m.Station, x.Line, now, e.mask))
		}
		t.netInterv, t.ownerStation = true, owner
		l := m.lock(e, t)
		kind := msg.NetIntervEx
		if shared {
			kind = msg.NetIntervShared
		}
		iv := m.ToStation(kind, x.Line, m.Station, owner)
		iv.Requester, iv.ReqStation, iv.TxnID = l.requester, l.reqStation, l.id
		if kill {
			iv.ReqStation = m.Station // the recalled data comes home
		}
		return
	}

	// LV or GV: DRAM is current.
	if shared {
		if local {
			m.ToProc(msg.ProcData, x.Line, m.Station, req, e.data)
			e.procs |= 1 << uint(req)
			return
		}
		d := m.ToStation(msg.NetData, x.Line, m.Station, src)
		d.Requester, d.ReqStation, d.TxnID, d.Data = x.Requester, x.ReqStation, x.TxnID, e.data
		e.mask = e.mask.Or(m.g.MaskFor(src)).Or(m.homeMask())
		e.state = GV
		return
	}
	// The exclusive grant: every copy but keep goes. The bus invalidates
	// local copies; the sequenced network multicast, whenever another
	// station may hold one (always for a remote writer), invalidates the
	// rest, and the line stays locked until it returns home (§2.3).
	if remote && !optimistic && m.Mut == MutNoLockRemReadEx {
		d := m.ToStation(msg.NetDataEx, x.Line, m.Station, src)
		d.Requester, d.ReqStation, d.TxnID, d.Data = x.Requester, x.ReqStation, x.TxnID, e.data
		e.procs = 0
		return
	}
	upgd := x.Type == msg.LocalUpgd && e.procs&keep != 0
	grant := func() {
		if upgd {
			m.ToProc(msg.ProcUpgdAck, x.Line, m.Station, req, 0)
		} else {
			m.ToProc(msg.ProcDataEx, x.Line, m.Station, req, e.data)
		}
	}
	multicast := remote || e.state == GV && e.mask.CoversOther(m.g, m.Station)
	var l *txn
	if multicast {
		t.waitInval, t.granted = true, remote
		if local {
			t.kind, t.upgdAck = x.Type, upgd
		}
		l = m.lock(e, t)
	}
	if remote {
		// The response goes first: the ring hierarchy delivers it to the
		// writer before the invalidation (§2.3, Figure 7), and the home
		// transaction id it carries lets the writer's NC recognize the
		// invalidation when it arrives.
		kind, data := msg.NetDataEx, e.data
		if optimistic {
			kind, data = msg.NetUpgdAck, 0
		}
		d := m.ToStation(kind, x.Line, m.Station, src)
		d.Requester, d.ReqStation, d.TxnID = x.Requester, x.ReqStation, l.id
		d.Data, d.InvalFollows = data, true
	}
	if m.Mut != MutSkipBusInval {
		m.BusInval(x.Line, m.Station, e.procs&^keep)
	}
	e.procs = keep
	if multicast {
		inv := e.mask.Or(m.homeMask())
		if remote {
			inv = inv.Or(m.g.MaskFor(src))
		}
		m.netInval(x.Line, inv, l.id)
		if local && !m.p.SCLocking {
			grant()
			l.granted = true
		}
		return
	}
	// No other station holds a copy: the transition completes now.
	if e.state == GV {
		e.mask = m.homeMask()
	}
	if kill {
		e.state = LV
		m.nextTxn() // a kill draws its id even when it completes at once
		m.killDone(&t, x.Line)
		return
	}
	grant()
	e.state = LI
}

func (m *Module) localWrBack(e *entry, x *msg.Message) {
	e.procs &^= 1 << uint(x.SrcMod)
	if e.locked {
		m.wrBackLocked(e, x, x.SrcMod, -1)
		return
	}
	e.data = x.Data
	if e.state == LI {
		e.state = LV
	}
}

func (m *Module) remWrBack(e *entry, x *msg.Message) {
	if e.locked {
		t := e.txn
		// While locked, a write-back can only legitimately come from the
		// station a network intervention targeted or from a writer the
		// transition already granted; and at most once. Anything else is
		// a stale or replayed message (fault injection duplicates ring
		// traffic) whose data must not enter the transition.
		fromOwner := t.netInterv && x.SrcStation == t.ownerStation
		fromWriter := t.granted && x.SrcStation == t.reqStation
		if (fromOwner || fromWriter) && !t.wbSeen {
			m.wrBackLocked(e, x, -1, x.SrcStation)
		}
		return
	}
	m.wrBackHome(e, x.Data, x.SrcStation)
}

// wrBackHome applies station's write-back of data to an unlocked line.
// Figure 5: GI -> GV on RemWrBack. The ejecting station's processors may
// retain shared copies (inclusion is not enforced), so it stays in the
// mask.
func (m *Module) wrBackHome(e *entry, data uint64, station int) {
	e.data = data
	e.state = GV
	if m.Mut == MutFlipGIGV {
		e.state = GI
	}
	e.mask = e.mask.Or(m.g.MaskFor(station)).Or(m.homeMask())
}

// wrBackLocked records a write-back that reached a locked line, from local
// processor proc or from station's NC (the other is -1). Once the
// intervention target has reported its miss, the write-back completes the
// transition.
func (m *Module) wrBackLocked(e *entry, x *msg.Message, proc, station int) {
	t := e.txn
	t.wbSeen, t.wbData, t.wbProc, t.wbStation = true, x.Data, proc, station
	if t.missSeen {
		m.completeAfterMiss(e, x.Line)
	}
}

// ---- completions ----

// reply hands a reply to the line's locked transition. The bus orders a
// local cache's intervention reply before the line can unlock; a network
// reply must carry the transition's id. Anything else is stale: a
// duplicate the fault injector replayed, or a reply for an older
// transaction on this line (a timeout re-issue can leave two in flight).
func (m *Module) reply(e *entry, x *msg.Message) {
	bus := x.Type == msg.IntervResp || x.Type == msg.IntervMiss
	if !e.locked || !bus && x.TxnID != e.txn.id {
		if !e.locked && x.Type == msg.NetWBCopy {
			e.data = x.Data // a copy for an already-completed transition still refreshes DRAM
		}
		return
	}
	switch x.Type {
	case msg.Invalidate:
		m.invalReturn(e, x.Line)
	case msg.IntervResp:
		m.intervResp(e, x)
	case msg.IntervMiss, msg.NetIntervMiss:
		m.intervMiss(e, x.Line)
	case msg.NetData, msg.NetDataEx, msg.NetWBCopy:
		m.netDataArrival(e, x)
	case msg.NetXferDone:
		// The previous owner confirmed an exclusive ownership transfer.
		m.settle(e, e.txn, x.Line, e.data)
	case msg.NetNAK:
		m.netNAKArrival(e, x.Line)
	}
}

// answer sends the requester of t its data: ProcData or ProcDataEx (an
// upgrade's ProcUpgdAck) on the bus to a local processor, NetData or
// NetDataEx over the network to a remote station, carrying t.id. It
// returns the network message. A kill has no data to answer with: its
// completion interrupt goes out in settle.
func (m *Module) answer(t *txn, line, data uint64) *msg.Message {
	switch t.kind {
	case msg.LocalRead:
		m.ToProc(msg.ProcData, line, m.Station, m.g.LocalProc(t.requester), data)
	case msg.LocalReadEx, msg.LocalUpgd:
		if t.upgdAck {
			m.ToProc(msg.ProcUpgdAck, line, m.Station, m.g.LocalProc(t.requester), 0)
		} else {
			m.ToProc(msg.ProcDataEx, line, m.Station, m.g.LocalProc(t.requester), data)
		}
	case msg.RemRead, msg.RemReadEx, msg.RemUpgd:
		kind := msg.NetDataEx
		if t.kind == msg.RemRead {
			kind = msg.NetData
		}
		d := m.ToStation(kind, line, m.Station, t.reqStation)
		d.Data, d.TxnID = data, t.id
		return d
	}
	return nil
}

// settle writes the final directory state of t and unlocks the line. A
// shared transition or a kill takes data into DRAM; an exclusive transfer
// leaves DRAM stale, because the new owner holds the line.
func (m *Module) settle(e *entry, t *txn, line, data uint64) {
	switch t.kind {
	case msg.LocalRead:
		e.data = data
		e.procs |= 1 << uint(m.g.LocalProc(t.requester))
		e.mask = e.mask.Or(m.homeMask())
		e.state = GV
	case msg.LocalReadEx, msg.LocalUpgd:
		e.procs = 1 << uint(m.g.LocalProc(t.requester))
		e.mask = m.homeMask()
		e.state = LI
	case msg.RemRead:
		e.data = data
		e.mask = e.mask.Or(m.g.MaskFor(t.reqStation)).Or(m.homeMask())
		e.state = GV
	case msg.RemReadEx, msg.RemUpgd:
		e.procs = 0
		e.mask = m.g.MaskFor(t.reqStation)
		e.state = GI
	case msg.KillReq:
		e.data = data
		e.procs = 0
		e.mask = m.homeMask()
		e.state = LV
		m.killDone(t, line)
	default:
		panic(fmt.Sprintf("memory[%d]: settling txn %v", m.Station, t.kind))
	}
	m.unlock(e)
}

// invalReturn: our own invalidation multicast came back to the home
// station, which unlocks the line and finalizes the transition (§2.3).
func (m *Module) invalReturn(e *entry, line uint64) {
	t := e.txn
	local := t.kind == msg.LocalReadEx || t.kind == msg.LocalUpgd
	remote := t.kind == msg.RemReadEx || t.kind == msg.RemUpgd
	switch {
	case local && t.granted && t.wbSeen && t.wbProc == m.g.LocalProc(t.requester):
		// The writer was granted early (no-SC-locking mode) and already
		// evicted its dirty line while the invalidation was in flight:
		// the write-back data is current and nobody holds a copy.
		e.data = t.wbData
		e.state = LV
		e.mask = m.homeMask()
		e.procs = 0
	case remote && t.granted && t.wbSeen && t.wbStation == t.reqStation:
		// The remote writer's NC already ejected and wrote the line
		// back while the invalidation was in flight.
		e.data = t.wbData
		e.state = GV
		e.mask = m.g.MaskFor(t.reqStation).Or(m.homeMask())
		e.procs = 0
	default:
		if !t.granted {
			m.answer(t, line, e.data)
		}
		m.settle(e, t, line, e.data)
		return
	}
	m.unlock(e)
}

// intervResp: a local secondary cache supplied its dirty copy. A local
// requester snarfed it off the bus; a remote one is answered here.
func (m *Module) intervResp(e *entry, x *msg.Message) {
	t := e.txn
	kind := t.kind
	if t.requester < 0 {
		m.answer(t, x.Line, x.Data)
	}
	m.settle(e, t, x.Line, x.Data)
	switch {
	case kind == msg.LocalRead:
		e.state = LV // the line never left the station
	case kind == msg.RemReadEx && m.Mut == MutWrongOwnerMask:
		e.mask = m.homeMask()
	}
}

// intervMiss: the targeted cache (IntervMiss) or remote NC (NetIntervMiss)
// no longer holds the line; its write-back either already arrived
// (wbSeen) or is still in flight.
func (m *Module) intervMiss(e *entry, line uint64) {
	t := e.txn
	if t.missSeen {
		return // a duplicated miss
	}
	t.missSeen = true
	if t.wbSeen {
		m.completeAfterMiss(e, line)
	}
}

// completeAfterMiss finishes a transition using written-back data after the
// intervention target reported a miss. The old owner station may retain
// stale shared copies in its secondary caches (the write-back came from an
// NC ejection that does not enforce inclusion), so it must stay in the
// sharing mask for shared grants, and exclusive grants must invalidate it
// with a sequenced multicast before the line unlocks.
func (m *Module) completeAfterMiss(e *entry, line uint64) {
	t := e.txn
	e.data = t.wbData
	inv := e.mask.Or(m.homeMask())
	switch t.kind {
	case msg.LocalRead, msg.RemRead:
		m.answer(t, line, e.data)
		m.settle(e, t, line, e.data)
		return
	case msg.LocalReadEx:
		if !m.p.SCLocking {
			m.answer(t, line, e.data)
			t.granted = true
		}
	case msg.RemReadEx:
		m.answer(t, line, e.data).InvalFollows = true
		t.granted = true
		inv = inv.Or(m.g.MaskFor(t.reqStation))
	case msg.KillReq: // the multicast alone
	default:
		panic(fmt.Sprintf("memory[%d]: completeAfterMiss for txn %v", m.Station, t.kind))
	}
	t.waitInval = true
	m.netInval(line, inv, t.id) // stays locked until the invalidation returns
}

// netDataArrival: data returned from a remote owner (recall to home or a
// shared-intervention copy travelling home). A NetWBCopy follows data the
// owner already sent the requester.
func (m *Module) netDataArrival(e *entry, x *msg.Message) {
	if x.Type != msg.NetWBCopy {
		m.answer(e.txn, x.Line, x.Data)
	}
	m.settle(e, e.txn, x.Line, x.Data)
}

// netNAKArrival: a remote NC refused our intervention because the line was
// locked there; abort and NAK the original requester so it retries. An
// owner that wrote the line back first has since locked it again for its
// own refetch: its write-back holds the only copy, so it lands as an
// unlocked RemWrBack would before the line unlocks. Dropped, it would
// leave the directory naming an owner that holds nothing, and every later
// request would bounce off that owner forever.
func (m *Module) netNAKArrival(e *entry, line uint64) {
	t := e.txn
	if t.wbSeen && t.wbStation >= 0 {
		m.wrBackHome(e, t.wbData, t.wbStation)
	}
	if t.reqStation == m.Station && t.requester >= 0 {
		m.ToProc(msg.ProcNAK, line, m.Station, m.g.LocalProc(t.requester), 0).NakOf = t.kind
	} else {
		m.ToStation(msg.NetNAK, line, m.Station, t.reqStation).NakOf = t.kind
	}
	m.Stats.NAKs++
	m.unlock(e)
}

// killDone sends the completion interrupt for a kill special function.
func (m *Module) killDone(t *txn, line uint64) {
	if t.requester < 0 {
		return
	}
	proc := m.g.LocalProc(t.requester)
	if t.reqStation == m.Station {
		m.ToProc(msg.NetInterrupt, line, m.Station, proc, 0).BusProcs = 1 << uint(proc)
		return
	}
	m.ToStation(msg.NetInterrupt, line, m.Station, t.reqStation).BusProcs = 1 << uint(proc)
}
