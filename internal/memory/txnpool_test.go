package memory

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// TestTxnPoolRecycles pins the free-list mechanics the directory relies
// on: a freed transition record comes back zeroed from the next Get
// (callers overwrite it wholesale, but a stale waitInval or write-back
// flag would corrupt the state machine if zeroing were lost).
func TestTxnPoolRecycles(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	m := newModule(g, sim.DefaultParams(), 0)
	a := m.txns.Get()
	a.kind = msg.LocalReadEx
	a.waitInval = true
	a.wbSeen = true
	m.txns.Put(a)
	b := m.txns.Get()
	if b != a {
		t.Fatal("freed txn was not recycled")
	}
	if b.kind != 0 || b.waitInval || b.wbSeen {
		t.Fatalf("recycled txn not zeroed: %+v", b)
	}
	if c := m.txns.Get(); c == a {
		t.Fatal("txn handed out twice")
	}
}

// TestTxnPoolLeakFree releases a batch and re-acquires it: every record
// must come back from the free list, none freshly allocated and none
// stranded.
func TestTxnPoolLeakFree(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	m := newModule(g, sim.DefaultParams(), 0)
	const n = 64
	batch := make([]*txn, n)
	seen := make(map[*txn]bool, n)
	for i := range batch {
		batch[i] = m.txns.Get()
		seen[batch[i]] = true
	}
	for _, t := range batch {
		m.txns.Put(t)
	}
	for i := 0; i < n; i++ {
		if !seen[m.txns.Get()] {
			t.Fatal("Get allocated fresh with records on the free list")
		}
	}
	if news, hits := m.txns.Stats(); news != n || hits != n {
		t.Fatalf("Stats() = %d,%d after re-acquiring %d freed records; want %d,%d", news, hits, n, n, n)
	}
	if seen[m.txns.Get()] {
		t.Fatal("a drained free list handed out a live record")
	}
}

// TestTxnPoolDoubleFreePanics arms the shared pool-debug switch and frees
// the same record twice — the guard must trip at the second free, exactly
// like the message pools' discipline.
func TestTxnPoolDoubleFreePanics(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	m := newModule(g, sim.DefaultParams(), 0)
	x := m.txns.Get()
	m.txns.Put(x)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	m.txns.Put(x)
}

// TestTxnPoolNilFree mirrors the nil-safety the unlock path depends on:
// entries can unlock without a transaction (e.g. kill of an unlocked
// line), so Put(nil) must be a no-op.
func TestTxnPoolNilFree(t *testing.T) {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	m := newModule(g, sim.DefaultParams(), 0)
	m.txns.Put(nil)
	if m.txns.Get() == nil {
		t.Fatal("Put(nil) put a nil record on the free list")
	}
	if news, hits := m.txns.Stats(); news != 1 || hits != 0 {
		t.Fatalf("Stats() = %d,%d; want 1,0: Put(nil) touched the free list", news, hits)
	}
}
