package netcache

import (
	"fmt"
	"math/bits"

	"numachine/internal/memory"
	"numachine/internal/msg"
	"numachine/internal/trace"
)

func (n *Module) allProcs() uint16 { return 1<<uint(n.g.ProcsPerStation) - 1 }

func onlyBit(procs uint16) int {
	if bits.OnesCount16(procs) != 1 {
		panic(fmt.Sprintf("netcache: processor mask %04b does not name exactly one owner", procs))
	}
	return bits.TrailingZeros16(procs)
}

func (n *Module) handle(x *msg.Message, now int64) {
	if n.Tr != nil {
		st := int32(-1)
		if e := n.lookup(x.Line); e != nil {
			st = int32(e.state)
			if e.locked {
				st |= 4
			}
		}
		n.Tr.Emit(now, trace.KindNCTxn, x.Line, x.TxnID, int32(x.Type), st)
	}
	switch x.Type {
	case msg.LocalRead, msg.LocalReadEx, msg.LocalUpgd:
		n.localReq(x, now)
	case msg.PrefetchReq:
		n.prefetch(x, now)
	case msg.LocalWrBack:
		n.localWrBack(x, now)
	case msg.IntervResp:
		n.intervResp(x, now)
	case msg.IntervMiss:
		n.intervMiss(x, now)
	case msg.NetData, msg.NetDataEx:
		n.netData(x)
	case msg.NetUpgdAck:
		n.netUpgdAck(x, now)
	case msg.NetNAK:
		n.netNAK(x, now)
	case msg.FalseRemoteResp:
		n.falseRemote(x, now)
	case msg.Invalidate:
		n.invalidate(x)
	case msg.NetIntervShared, msg.NetIntervEx:
		n.netInterv(x)
	default:
		panic(fmt.Sprintf("netcache[%d]: unexpected message %v", n.Station, x))
	}
}

// countHit classifies an NC hit per §4.5: data brought onto the station by
// one processor and used by another is the migration effect; reuse by the
// fetching processor (whose L2 dropped the line) is the caching effect.
func (n *Module) countHit(e *entry, req int, retry bool) {
	if retry {
		return
	}
	if e.broughtBy >= 0 && int(e.broughtBy) != req {
		n.Stats.HitsMigration++
	} else {
		n.Stats.HitsCaching++
	}
}

// localReq handles LocalRead, LocalReadEx and LocalUpgd from a processor.
func (n *Module) localReq(x *msg.Message, now int64) {
	req := x.SrcMod
	bit := uint16(1) << uint(req)
	e := n.lookup(x.Line)
	memory.NCHist.Record(&n.Hist, x.Type, e.histCol())
	if !x.Retry {
		n.Stats.Requests++
	} else {
		n.Stats.Retries++
	}

	if e == nil {
		e = n.allocate(x.Line, x.Home)
		if e == nil {
			if !x.Retry {
				n.Stats.Conflicts++
			}
			n.ToProc(msg.ProcNAK, x.Line, -1, req, 0).NakOf = x.Type
			return
		}
		e.broughtBy = int8(req)
		n.startFetch(e, x, now)
		return
	}
	if e.locked {
		if !x.Retry {
			if e.txn != nil && e.txn.kind == txnFetch {
				// A fetch for the same line is already outstanding: this
				// request is combined with it (§4.5's combining effect).
				n.Stats.Combined++
			} else {
				n.Stats.Conflicts++
			}
		}
		n.ToProc(msg.ProcNAK, x.Line, -1, req, 0).NakOf = x.Type
		return
	}

	switch e.state {
	case LV, GV:
		switch x.Type {
		case msg.LocalRead:
			n.countHit(e, req, x.Retry)
			n.ToProc(msg.ProcData, x.Line, -1, req, e.data)
			e.procs |= bit
		default: // LocalReadEx / LocalUpgd
			if e.state == LV {
				// Coherence localization (§4.5): valid copies exist only on
				// this station, so ownership changes hands locally.
				n.countHit(e, req, x.Retry)
				n.BusInval(x.Line, 0, e.procs&^bit)
				if x.Type == msg.LocalUpgd && e.procs&bit != 0 {
					n.ToProc(msg.ProcUpgdAck, x.Line, -1, req, 0)
				} else {
					n.ToProc(msg.ProcDataEx, x.Line, -1, req, e.data)
				}
				e.procs = bit
				e.state = LI
				return
			}
			// GV: the NC holds valid data but ownership must come from the
			// home memory; an acknowledgement-only upgrade suffices.
			if !x.Retry {
				n.Stats.RemoteFetches++
			}
			t := n.txns.Get()
			*t = txn{kind: txnFetch, origType: msg.RemUpgd, reqProc: req,
				home: int(e.home), upgdAck: x.Type == msg.LocalUpgd && e.procs&bit != 0}
			e.locked, e.txn = true, t
			n.sendHome(now, msg.RemUpgd, x.Line, t)
		}
	case LI:
		// A local secondary cache holds the line dirty: local intervention,
		// no home traffic (§4.5).
		if !x.Retry {
			n.Stats.LocalInterv++
		}
		owner := onlyBit(e.procs)
		if owner == req {
			// The requester is the recorded owner but lost its copy (a
			// misfired upgrade ack): re-supply from the NC.
			n.ToProc(msg.ProcDataEx, x.Line, -1, req, e.data)
			return
		}
		t := n.txns.Get()
		*t = txn{kind: txnLocalInterv, origType: x.Type, reqProc: req, home: int(e.home),
			ex: x.Type != msg.LocalRead, pending: 1}
		e.locked, e.txn = true, t
		n.BusInterv(x.Line, 0, 0, 1<<uint(owner), req, t.ex)
		if x.Type == msg.LocalRead {
			e.procs |= bit
		} else {
			e.procs = bit
		}
	case GI:
		e.broughtBy = int8(req)
		n.startFetch(e, x, now)
	}
}

// prefetch pulls a line into the NC in the background (§3.1.4): a shared
// fetch with no waiting processor. Hits, locked entries and conflicts are
// silently dropped — prefetching is only a hint.
func (n *Module) prefetch(x *msg.Message, now int64) {
	n.Stats.Prefetches++
	if e := n.lookup(x.Line); e != nil && (e.locked || e.state == LV || e.state == LI || e.state == GV) {
		return // present or being fetched
	}
	e := n.allocate(x.Line, x.Home)
	if e == nil {
		return // conflict with a locked entry: drop the hint
	}
	e.broughtBy = int8(x.SrcMod)
	t := n.txns.Get()
	*t = txn{kind: txnFetch, origType: msg.RemRead, reqProc: -1, home: int(e.home)}
	e.locked, e.txn = true, t
	n.sendHome(now, msg.RemRead, x.Line, t)
}

// startFetch locks the entry and sends the appropriate request home.
func (n *Module) startFetch(e *entry, x *msg.Message, now int64) {
	if !x.Retry {
		n.Stats.RemoteFetches++
	}
	req := x.SrcMod
	var rt msg.Type
	switch x.Type {
	case msg.LocalRead:
		rt = msg.RemRead
	default:
		// The entry is GI/NotIn: the station holds no valid data the NC can
		// vouch for, so even an upgrade must fetch the line. (The processor
		// may think it has a shared copy, but the NC cannot prove it — an
		// ack-only grant here could hand out ownership of nothing.)
		rt = msg.RemReadEx
	}
	t := n.txns.Get()
	*t = txn{kind: txnFetch, origType: rt, reqProc: req, home: int(e.home)}
	e.locked, e.txn = true, t
	n.sendHome(now, rt, x.Line, t)
}

func (n *Module) localWrBack(x *msg.Message, now int64) {
	bit := uint16(1) << uint(x.SrcMod)
	// A network intervention may be waiting on this write-back.
	if t := n.sideTxns[x.Line]; t != nil {
		t.wbSeen, t.wbData = true, x.Data
		n.checkIntervDone(nil, x.Line, t, now)
		return
	}
	e := n.lookup(x.Line)
	memory.NCHist.Record(&n.Hist, msg.LocalWrBack, e.histCol())
	if e == nil {
		e = n.allocate(x.Line, x.Home)
		if e == nil {
			// Slot held by a locked entry: the dirty data must not be lost,
			// so it bypasses the NC and travels home.
			n.ToStation(msg.RemWrBack, x.Line, x.Home, x.Home).Data = x.Data
			return
		}
		e.broughtBy = int8(x.SrcMod)
		e.data = x.Data
		e.state = LV
		e.procs = 0
		return
	}
	if e.locked {
		e.txn.wbSeen, e.txn.wbData = true, x.Data
		e.procs &^= bit
		if e.txn.kind == txnFetch && e.txn.granted {
			// The write was already granted (no-SC-locking mode) and the
			// owner evicted before the invalidation drained: this is an
			// ordinary eviction write-back, not transaction bookkeeping.
			e.data = x.Data
			if e.state == LI && e.procs == 0 {
				e.state = LV
			}
		}
		n.checkIntervDone(e, x.Line, e.txn, now)
		return
	}
	e.data = x.Data
	e.procs &^= bit
	if e.state == LI || e.state == GI {
		e.state = LV
	}
}

// ---- bus intervention results ----

// intervTxn returns the transaction a bus intervention reply on line
// answers: the side table's (with e == nil) or the locked entry's.
func (n *Module) intervTxn(line uint64) (*entry, *txn) {
	if t := n.sideTxns[line]; t != nil {
		return nil, t
	}
	if e := n.lookup(line); e != nil && e.locked {
		return e, e.txn
	}
	return nil, nil
}

func (n *Module) intervResp(x *msg.Message, now int64) {
	e, t := n.intervTxn(x.Line)
	if t == nil {
		return // completed by a racing write-back
	}
	t.pending--
	t.dataSeen, t.data = true, x.Data
	n.checkIntervDone(e, x.Line, t, now)
}

func (n *Module) intervMiss(x *msg.Message, now int64) {
	e, t := n.intervTxn(x.Line)
	if t == nil {
		return
	}
	t.pending--
	n.checkIntervDone(e, x.Line, t, now)
}

// checkIntervDone completes local interventions, network intervention
// service and false-remote recovery once all responses (and any required
// write-back) are in. e is nil when the service runs from the side table
// (the line is NotIn).
func (n *Module) checkIntervDone(e *entry, line uint64, t *txn, now int64) {
	if t.kind == txnFetch || t.pending > 0 && !t.dataSeen {
		return
	}
	data, have := t.data, t.dataSeen
	if !have && t.wbSeen {
		data, have = t.wbData, true
	}
	switch {
	case t.kind == txnNetServe:
		n.finishNetServe(e, line, t, data, have)
	case have:
		// Local intervention or recovery: the requester gets the line.
		bit := uint16(1) << uint(t.reqProc)
		e.data = data
		e.state, e.procs = LV, e.procs|bit
		grant := msg.ProcData
		if t.ex {
			e.state, e.procs, grant = LI, bit, msg.ProcDataEx
		}
		if !t.dataSeen {
			// The owner had already evicted: the requester could not snarf
			// the response, so grant explicitly from the written-back data.
			n.ToProc(grant, line, -1, t.reqProc, data)
		}
		n.clearTxn(e)
	case t.kind == txnRecover:
		// The false-remote bounce was stale: ownership moved (or the
		// write-back reached home) while our request was in flight.
		// Fall back to a fresh fetch — the home has settled by now. Runs
		// do reach this: barnes 64/256 (L2 64, NC 64), 64/1024 (L2 128,
		// NC 128) and 64/2048 (L2 128, NC 256) all do; radix 64/32768
		// does not.
		t.kind = txnFetch
		t.origType = msg.RemRead
		if t.ex {
			t.origType = msg.RemReadEx
		}
		t.upgdAck = false
		t.dataInvalidated = false
		n.sendHome(now, t.origType, line, t)
	}
	// A local intervention without data: the write-back is still in flight.
}

// finishNetServe answers the home memory's intervention with the collected
// data. Without data (!have) every processor missed and no local
// write-back preceded the last miss: bus FIFO order would have delivered
// an L2 write-back first, so the data must be travelling to the home
// memory (an NC ejection write-back), and the miss is reported for the
// home to complete. e is nil when the service ran from the side table.
func (n *Module) finishNetServe(e *entry, line uint64, t *txn, data uint64, have bool) {
	home := t.home
	if !have {
		miss := n.ToStation(msg.NetIntervMiss, line, home, home)
		miss.TxnID = t.netTxnID
	} else {
		kind, note := msg.NetData, msg.NetWBCopy // the copy lands home
		if t.ex {
			kind, note = msg.NetDataEx, msg.NetXferDone
		}
		d := n.ToStation(kind, line, home, t.reqStation)
		d.Data, d.TxnID = data, t.netTxnID
		if t.reqStation != home {
			c := n.ToStation(note, line, home, home)
			c.TxnID = t.netTxnID
			if !t.ex {
				c.Data = data
			}
		}
	}
	switch {
	case e == nil:
		n.dropSide(line)
		return
	case have && !t.ex:
		e.data = data
		e.state = GV
	default:
		e.state = GI
		e.procs = 0
	}
	n.clearTxn(e)
}

// ---- network responses for pending fetches ----

func (n *Module) fetchTxn(line uint64) (*entry, *txn) {
	e := n.lookup(line)
	if e == nil || !e.locked || e.txn == nil || e.txn.kind != txnFetch {
		return nil, nil
	}
	return e, e.txn
}

func (n *Module) netData(x *msg.Message) {
	e, t := n.fetchTxn(x.Line)
	if t == nil {
		// No fetch is pending. An exclusive response can still arrive
		// after a loss-timeout re-issue raced a completed transfer: the
		// home now believes this station owns the line, and the payload
		// may be the only valid copy in the system. If nothing here holds
		// the line (no entry, or an unlocked non-owning one), send the
		// data home as an ordinary owner write-back so the directory
		// converges; when a local copy — or a transaction that implies
		// one — exists, the late response is redundant and is dropped.
		// Never allocate for it: this path must not evict live entries.
		if x.Type == msg.NetDataEx {
			if e := n.lookup(x.Line); e == nil || (!e.locked && e.state != LV && e.state != LI) {
				n.ToStation(msg.RemWrBack, x.Line, x.Home, x.Home).Data = x.Data
			}
		}
		return // stale response
	}
	t.retryAt = 0 // answered: cancel any scheduled loss-timeout re-issue
	t.dataSeen, t.data = true, x.Data
	if x.Type == msg.NetDataEx && x.InvalFollows {
		t.expectInvalID = x.TxnID
		t.needInval = n.p.SCLocking
	}
	n.maybeCompleteFetch(e)
}

func (n *Module) netUpgdAck(x *msg.Message, now int64) {
	e, t := n.fetchTxn(x.Line)
	if t == nil {
		return
	}
	t.retryAt = 0 // answered: cancel any scheduled loss-timeout re-issue
	if t.dataInvalidated {
		// §4.6: the directory's inexact mask said we still held a copy, but
		// it was invalidated before the acknowledgement arrived. Ownership
		// is ours yet the data is gone: issue the special write request.
		n.Stats.SpecialWrReqs++
		t.upgdAck = false
		t.expectInvalID = x.TxnID
		t.needInval = n.p.SCLocking
		t.ackSeen = false
		n.sendHome(now, msg.SpecialWrReq, x.Line, t)
		return
	}
	t.ackSeen = true
	t.expectInvalID = x.TxnID
	t.needInval = n.p.SCLocking && x.InvalFollows
	n.maybeCompleteFetch(e)
}

func (n *Module) netNAK(x *msg.Message, now int64) {
	e, t := n.fetchTxn(x.Line)
	if t == nil {
		// A kill's NAK has no NC transaction: the processor's KillReq hit
		// a locked home line. Forward it so the issuing processor backs
		// off and re-sends the kill instead of waiting forever.
		if x.NakOf == msg.KillReq && x.Requester >= 0 {
			n.ToProc(msg.ProcNAK, x.Line, -1, n.g.LocalProc(x.Requester), 0).NakOf = msg.KillReq
		}
		return
	}
	rt := t.origType
	if t.dataInvalidated && rt == msg.RemUpgd {
		rt = msg.RemReadEx
		t.origType = rt
		t.upgdAck = false
	}
	t.retryType = rt
	d := n.Backoff.Delay(n.p, t.nakStreak)
	t.nakStreak++
	n.armRetry(e.line, t, now+d, false)
}

func (n *Module) falseRemote(x *msg.Message, now int64) {
	e, t := n.fetchTxn(x.Line)
	if t == nil {
		return
	}
	if t.reqProc < 0 {
		// A prefetch bounced off our own ownership: nothing to recover.
		// Unlock and recycle the transaction as well — a locked invalid
		// entry is unreachable (lookup and the snapshot encoder both skip
		// invalid entries) and would only strand the txn.
		e.valid = false
		n.clearTxn(e)
		return
	}
	// The home memory says this station already owns the line: recover by
	// intervening locally (the directory information was lost to ejection).
	n.Stats.FalseRemotes++
	t.kind = txnRecover
	t.retryAt = 0 // cancel any scheduled re-issue of the bounced request
	t.ex = x.NakOf != msg.RemRead
	others := n.allProcs() &^ (1 << uint(t.reqProc))
	t.pending = bits.OnesCount16(others)
	if t.pending == 0 {
		// Single-processor station: the data can only be in a write-back.
		n.checkIntervDone(e, x.Line, t, now)
		return
	}
	n.BusInterv(x.Line, 0, 0, others, t.reqProc, t.ex)
}

// maybeCompleteFetch grants the waiting processor and unlocks the entry
// according to the sequential-consistency rules of §2.3: with SC locking
// the data (or ack) is held until the write's invalidation arrives; without
// it the grant is immediate but the entry stays locked until the
// invalidation has been absorbed.
func (n *Module) maybeCompleteFetch(e *entry) {
	t := e.txn
	dataReady := t.dataSeen || t.ackSeen
	if !dataReady {
		return
	}
	if !t.granted && (!t.needInval || t.invalSeen) {
		n.grant(e)
		t.granted = true
	}
	if t.granted && (t.expectInvalID == 0 || t.invalSeen) {
		n.clearTxn(e)
	}
}

func (n *Module) grant(e *entry) {
	t := e.txn
	data := e.data
	if t.dataSeen {
		data = t.data
		e.data = data
	}
	if t.reqProc < 0 {
		// Prefetch completion: no processor waits; keep (or drop) the data.
		if t.dataInvalidated {
			e.state = GI
		} else {
			e.state = GV
		}
		e.procs = 0
		return
	}
	bit := uint16(1) << uint(t.reqProc)
	if t.origType == msg.RemRead {
		n.ToProc(msg.ProcData, e.line, -1, t.reqProc, data)
		if t.dataInvalidated {
			// A foreign invalidation arrived while the fetch was in flight
			// (the data travelled via a third station and lost the race).
			// The read itself is ordered before the invalidating write, so
			// the value stands — but no copy may be retained: deliver, then
			// invalidate in the same breath.
			n.BusInval(e.line, 0, bit)
			e.procs = 0
			e.state = GI
			return
		}
		e.procs |= bit
		e.state = GV
		return
	}
	// Exclusive grant.
	n.BusInval(e.line, 0, e.procs&^bit)
	if t.upgdAck && !t.dataInvalidated {
		n.ToProc(msg.ProcUpgdAck, e.line, -1, t.reqProc, 0)
	} else {
		n.ToProc(msg.ProcDataEx, e.line, -1, t.reqProc, data)
	}
	e.procs = bit
	e.state = LI
}

// ---- invalidations ----

func (n *Module) invalidate(x *msg.Message) {
	e := n.lookup(x.Line)
	memory.NCHist.Record(&n.Hist, msg.Invalidate, e.histCol())
	if e == nil {
		// Ejected from the NC: broadcast to all processors (§2.3).
		n.BusInval(x.Line, 0, n.allProcs())
		return
	}
	if e.locked && e.txn != nil && e.txn.kind == txnFetch &&
		x.TxnID != 0 && e.txn.expectInvalID == x.TxnID {
		// The sequencing invalidation for our own write (Figure 7). The
		// processor mask may understate stale sharers whose entry was
		// ejected earlier (inclusion is not enforced), so invalidate every
		// processor except the writer.
		t := e.txn
		t.invalSeen = true
		n.BusInval(x.Line, 0, n.allProcs()&^(1<<uint(t.reqProc)))
		e.procs &= 1 << uint(t.reqProc)
		n.maybeCompleteFetch(e)
		return
	}
	if e.locked {
		t := e.txn
		if t.kind == txnFetch {
			// The NC's processor mask may understate stale sharers during a
			// fetch (the requester's own copy is not tracked), so broadcast.
			n.BusInval(x.Line, 0, n.allProcs())
			e.procs = 0
			t.dataInvalidated = true
			t.upgdAck = false
			e.state = GI
		}
		// Interventions/recovery imply this station owns the line; an
		// invalidation can only be a stale straggler. Ignore it.
		return
	}
	if e.state == LV || e.state == LI {
		// A stale invalidation from a write that was ordered before we
		// acquired ownership; our copy is fresher. Ignore.
		return
	}
	// Broadcast: the entry may have been ejected and re-allocated since a
	// processor obtained its copy, in which case the mask understates the
	// sharers (inclusion is not enforced, §2.3's broadcast rule).
	n.BusInval(x.Line, 0, n.allProcs())
	e.procs = 0
	e.state = GI
}

// ---- network interventions (this station is the owner) ----

func (n *Module) netInterv(x *msg.Message) {
	e := n.lookup(x.Line)
	memory.NCHist.Record(&n.Hist, x.Type, e.histCol())
	home := x.SrcStation
	if _, busy := n.sideTxns[x.Line]; e == nil && busy || e != nil && e.locked {
		nk := n.ToStation(msg.NetNAK, x.Line, home, home)
		nk.TxnID, nk.NakOf = x.TxnID, x.Type
		return
	}
	if e != nil && e.state == GI {
		miss := n.ToStation(msg.NetIntervMiss, x.Line, home, home)
		miss.TxnID = x.TxnID
		return
	}
	t := n.txns.Get()
	*t = txn{kind: txnNetServe, origType: x.Type, reqProc: -1, home: home,
		netTxnID: x.TxnID, reqStation: x.ReqStation, ex: x.Type == msg.NetIntervEx}
	switch {
	case e == nil:
		// The home believes we own this line but the NC ejected it: the
		// dirty copy is in a local L2 or its write-back is in flight.
		t.pending = n.g.ProcsPerStation
		if n.sideTxns == nil {
			n.sideTxns = make(map[uint64]*txn)
		}
		n.sideTxns[x.Line] = t
		n.BusInterv(x.Line, 0, 0, n.allProcs(), -1, t.ex)
	case e.state == LI:
		t.pending = 1
		e.locked, e.txn = true, t
		n.BusInterv(x.Line, 0, 0, 1<<uint(onlyBit(e.procs)), -1, t.ex)
	default: // LV or GV: the NC holds the data and serves at once
		if t.ex {
			n.BusInval(x.Line, 0, e.procs)
		}
		e.locked, e.txn = true, t
		n.finishNetServe(e, x.Line, t, e.data, true)
	}
}
