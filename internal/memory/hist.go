package memory

import (
	"numachine/internal/monitor"
	"numachine/internal/msg"
)

// CoherenceHist is the layout of the cache coherence histogram of §3.3.3,
// which both the home memory and the network cache keep: one row per
// transaction type its directory counts, named by msg.Type.String in list
// order, and one column per line state crossed with the lock bit, after a
// NotIn column in the network cache's. There is one per directory kind,
// shared by every module of the kind; each module holds only its
// monitor.Table.
type CoherenceHist struct {
	rows, cols []string
	row        [256]uint8 // 1 + the row of each counted type, 0 if uncounted
}

func newCoherenceHist(cols []string, types ...msg.Type) *CoherenceHist {
	k := &CoherenceHist{cols: cols}
	for i, t := range types {
		k.rows = append(k.rows, t.String())
		k.row[t] = uint8(i + 1)
	}
	return k
}

var stateCols = []string{"LV", "LI", "GV", "GI", "LV*", "LI*", "GV*", "GI*"}

// HomeHist and NCHist are the home memory's and the network cache's
// layouts.
var (
	HomeHist = newCoherenceHist(stateCols, msg.LocalRead, msg.LocalReadEx, msg.LocalUpgd, msg.LocalWrBack,
		msg.RemRead, msg.RemReadEx, msg.RemUpgd, msg.RemWrBack, msg.SpecialWrReq, msg.KillReq)
	NCHist = newCoherenceHist(append([]string{"NotIn"}, stateCols...), msg.LocalRead, msg.LocalReadEx,
		msg.LocalUpgd, msg.LocalWrBack, msg.NetIntervShared, msg.NetIntervEx, msg.Invalidate)
)

// Table builds the histogram table of component owner[index].
func (k *CoherenceHist) Table(owner string, index int) monitor.Table {
	return monitor.Table{Owner: owner, Index: index, Name: "coherence histogram", Rows: k.rows, Cols: k.cols}
}

// HistCol is the column of a line in state s, locked or not, in a table
// of stateCols.
func HistCol(s DirState, locked bool) int {
	if locked {
		return int(s) + 4
	}
	return int(s)
}

// Record counts a message of type t in column c of table h; a type the
// layout has no row for is not counted.
func (k *CoherenceHist) Record(h *monitor.Table, t msg.Type, c int) {
	if r := k.row[t]; r != 0 {
		h.Add(int(r)-1, c)
	}
}
