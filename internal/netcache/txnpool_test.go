package netcache

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

func newPoolModule() *Module {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	return newModule(g, sim.DefaultParams(), 1)
}

// TestTxnPoolRecycles pins the free-list mechanics: a record freed through
// either death point (entry unlock or side-table removal) comes back
// zeroed from the next Get.
func TestTxnPoolRecycles(t *testing.T) {
	n := newPoolModule()
	a := n.txns.Get()
	a.kind = txnRecover
	n.txns.Put(a)
	b := n.txns.Get()
	if b != a {
		t.Fatal("freed txn was not recycled")
	}
	if b.kind != 0 {
		t.Fatalf("recycled txn not zeroed: %+v", b)
	}
}

// TestClearTxnFreesEntryRecord exercises the entry-unlock death point:
// clearTxn must unlock, detach and free the record in one step, so a
// later double free of the same pointer trips the guard.
func TestClearTxnFreesEntryRecord(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	n := newPoolModule()
	x := n.txns.Get()
	e := n.allocate(0, 0)
	e.locked, e.txn = true, x
	n.clearTxn(e)
	if e.locked || e.txn != nil {
		t.Fatal("clearTxn left the entry locked or attached")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	n.txns.Put(x)
}

// TestDropSideFreesSideRecord exercises the side-table death point:
// dropSide must remove the line's record and recycle it.
func TestDropSideFreesSideRecord(t *testing.T) {
	n := newPoolModule()
	x := n.txns.Get()
	n.sideTxns = map[uint64]*txn{0x1000: x} // the table is made by its first insert
	n.dropSide(0x1000)
	if len(n.sideTxns) != 0 {
		t.Fatal("dropSide left the side table populated")
	}
	if got := n.txns.Get(); got != x {
		t.Fatal("side-table txn was not recycled")
	}
	// dropSide of an absent line frees nothing (sideTxns[line] is nil).
	n.dropSide(0x2000)
	n.txns.Get()
	if news, hits := n.txns.Stats(); news != 2 || hits != 1 {
		t.Fatalf("Stats() = %d,%d; want 2,1: dropSide of an absent line touched the free list", news, hits)
	}
}

// TestTxnPoolDoubleFreePanics arms the shared pool-debug switch and frees
// the same record twice, mirroring the msg pool guard discipline.
func TestTxnPoolDoubleFreePanics(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	n := newPoolModule()
	x := n.txns.Get()
	n.txns.Put(x)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	n.txns.Put(x)
}
