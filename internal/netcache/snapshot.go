package netcache

import (
	"sort"

	"numachine/internal/snap"
)

// Encode appends the NC's behaviorally relevant state to a canonical
// encoding (see internal/snap). Entries are visited in slot order (the
// slot index is behavioral: it is the conflict/ejection structure), side
// transactions in line order, retryLines in FIFO order (fireRetries scans
// them in order). Excluded: broughtBy (hit classification only), Backoff
// (the model checker installs its Choice, so the jitter stream is never
// drawn), statistics.
func (n *Module) Encode(e *snap.Enc) {
	for i := 0; i < n.entries.Slots(); i++ {
		en := n.entries.At(i) // a never-allocated slot encodes as NotIn
		if !en.valid {
			e.Byte(0)
			continue
		}
		e.Byte(1)
		e.U64(en.line)
		e.Int(int(en.home))
		e.Byte(byte(en.state))
		e.U16(en.procs)
		e.U64(en.data)
		e.Bool(en.locked)
		encodeNCTxn(e, en.txn)
	}
	lines := make([]uint64, 0, len(n.sideTxns))
	for line := range n.sideTxns {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Int(len(lines))
	for _, line := range lines {
		e.U64(line)
		encodeNCTxn(e, n.sideTxns[line])
	}
	e.Int(len(n.retryLines))
	for _, line := range n.retryLines {
		e.U64(line)
	}
	n.Port.Encode(e)
}

func encodeNCTxn(e *snap.Enc, t *txn) {
	if t == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Byte(byte(t.kind))
	e.Byte(byte(t.origType))
	e.Int(t.reqProc)
	e.Int(t.home)
	e.Bool(t.upgdAck)
	e.Bool(t.needInval)
	e.Bool(t.dataSeen)
	e.Bool(t.ackSeen)
	e.Bool(t.invalSeen)
	e.Bool(t.granted)
	e.Bool(t.dataInvalidated)
	e.Txn(t.expectInvalID)
	e.U64(t.data)
	// retryAt == 0 means "no retry armed"; it is a flag, not a time.
	e.Bool(t.retryAt > 0)
	if t.retryAt > 0 {
		e.Time(t.retryAt)
	}
	e.Byte(byte(t.retryType))
	e.Bool(t.retryIsTimeout)
	e.Int(t.nakStreak)
	e.Txn(t.netTxnID)
	e.Int(t.reqStation)
	e.Bool(t.ex)
	e.Int(t.pending)
	e.Bool(t.wbSeen)
	e.U64(t.wbData)
}
