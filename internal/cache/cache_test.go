package cache

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestLineSize pins the tag entry: at 24 bytes a tag page covers
// sim.PageLen lines in 6 KB; a fourth word grows every touched page of
// every L1 and L2 by a third.
func TestLineSize(t *testing.T) {
	if s := unsafe.Sizeof(Line{}); s != 24 {
		t.Fatalf("Line is %d bytes, want 24", s)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(16, 64)
	if c.Probe(0x1000) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0x1000, Shared, 7)
	l := c.Probe(0x1000)
	if l == nil || l.State != Shared || l.Data != 7 {
		t.Fatalf("probe after insert: %+v", l)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(4, 64) // 4 slots; lines 4 apart collide
	c.Insert(0*64, Dirty, 1)
	victim := c.Insert(4*64, Shared, 2) // same slot
	if victim.State != Dirty || victim.Addr != 0 {
		t.Fatalf("victim = %+v, want the dirty line 0", victim)
	}
	if c.Probe(0) != nil {
		t.Error("evicted line still present")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(16, 64)
	c.Insert(0x40, Dirty, 9)
	old, ok := c.Invalidate(0x40)
	if !ok || old.Data != 9 || old.State != Dirty {
		t.Fatalf("invalidate = (%+v, %v)", old, ok)
	}
	if _, ok := c.Invalidate(0x40); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := New(16, 64)
	c.Insert(0x80, Shared, 1)
	v := c.Insert(0x80, Dirty, 2)
	if v.State != Invalid {
		t.Fatalf("re-insert evicted %+v", v)
	}
	l := c.Probe(0x80)
	if l.State != Dirty || l.Data != 2 {
		t.Fatalf("in-place update failed: %+v", l)
	}
}

func TestAlign(t *testing.T) {
	c := New(16, 64)
	if c.Align(0x1234) != 0x1200 {
		t.Errorf("align(0x1234) = %#x", c.Align(0x1234))
	}
}

func TestForEachVisitsAllValid(t *testing.T) {
	c := New(16, 64)
	for i := uint64(0); i < 10; i++ {
		c.Insert(i*64, Shared, i)
	}
	n := 0
	c.ForEach(func(l *Line) { n++ })
	if n != 10 {
		t.Errorf("ForEach visited %d lines, want 10", n)
	}
}

// Property: after any sequence of inserts, every line claimed resident is
// found by Probe at its own address, and the cache never exceeds capacity.
func TestInsertProbeProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(32, 64)
		for _, a := range addrs {
			line := uint64(a) &^ 63
			c.Insert(line, Shared, uint64(a))
		}
		count := 0
		c.ForEach(func(l *Line) {
			count++
			if c.Probe(l.Addr) == nil {
				t.Errorf("resident line %#x not probeable", l.Addr)
			}
		})
		return count <= 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 64) },
		func() { New(-7, 64) },
		func() { New(8, 63) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			fn()
		}()
	}
}
