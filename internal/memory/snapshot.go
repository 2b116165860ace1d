package memory

import (
	"sort"

	"numachine/internal/snap"
)

// Encode appends the module's behaviorally relevant state to a canonical
// encoding (see internal/snap). Directory entries are visited in line
// order; entries indistinguishable from a never-touched line (unlocked LV,
// no sharers, home mask, data 0) are skipped so that lazily created
// baseline entries do not split otherwise identical states. txnSeq is
// excluded: transaction ids are only compared for equality and freshly
// drawn ids never collide with live ones, so the encoder's first-appearance
// renaming makes the counter value irrelevant. Statistics are excluded.
func (m *Module) Encode(e *snap.Enc) {
	lines := make([]uint64, 0, len(m.dir))
	for line, en := range m.dir {
		if en.state == LV && !en.locked && en.procs == 0 &&
			en.mask == m.homeMask() && en.data == 0 && en.txn == nil {
			continue
		}
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	e.Int(len(lines))
	for _, line := range lines {
		en := m.dir[line]
		e.U64(line)
		e.Byte(byte(en.state))
		e.Bool(en.locked)
		e.U16(en.mask.Rings)
		e.U16(en.mask.Stations)
		e.U16(en.procs)
		e.U64(en.data)
		encodeTxn(e, en.txn)
	}
	m.Port.Encode(e)
}

func encodeTxn(e *snap.Enc, t *txn) {
	if t == nil {
		e.Byte(0)
		return
	}
	e.Byte(1)
	e.Byte(byte(t.kind))
	e.Int(t.requester)
	e.Int(t.reqStation)
	e.Txn(t.id)
	e.Bool(t.waitInval)
	e.Bool(t.granted)
	e.Bool(t.wbSeen)
	e.U64(t.wbData)
	e.Int(t.wbProc)
	e.Int(t.wbStation)
	e.Bool(t.missSeen)
	e.Bool(t.upgdAck)
	e.Bool(t.netInterv)
	e.Int(t.ownerStation)
}
