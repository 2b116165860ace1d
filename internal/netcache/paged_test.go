package netcache

import (
	"bytes"
	"testing"
	"unsafe"

	"numachine/internal/cache"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/snap"
	"numachine/internal/topo"
)

// TestEntrySize pins the packed entry: at 32 bytes a tag page covers
// sim.PageLen lines in 8 KB; growing it silently doubles the touched
// footprint of every run.
func TestEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(entry{}); s > 32 {
		t.Fatalf("entry is %d bytes, want <= 32", s)
	}
}

// TestLineToSlotSharedWithCache: the L2 and the NC map a line to its slot
// through one function (sim.Paged owns it). With a slot count that is not
// a power of two — the modulo path — both must place a line at
// (line/lineSize) mod n.
func TestLineToSlotSharedWithCache(t *testing.T) {
	const n, lineSize = 300, 64
	h := newSizedHarness(t, n)
	c := cache.New(n, lineSize)
	// The first n lines fill n distinct slots, line i in slot i.
	for i := uint64(0); i < n; i++ {
		if v := c.Insert(i*lineSize, cache.Shared, i); v.State != cache.Invalid {
			t.Fatalf("line %d displaced %+v from an empty cache", i, v)
		}
	}
	rng := sim.NewRNG(1)
	for i := 0; i < 2000; i++ {
		line := (rng.Uint64() >> 20) &^ (lineSize - 1)
		want := (line / lineSize) % n
		// The cache displaces exactly the resident line of slot want.
		resident := want * lineSize
		if v := c.Insert(line, cache.Shared, 0); line != resident && v.Addr != resident {
			t.Fatalf("cache: line %#x displaced %#x, want slot %d's %#x", line, v.Addr, want, resident)
		}
		c.Insert(resident, cache.Shared, 0)
		if e := h.n.allocate(line, 0); e == nil || e != h.n.entries.At(int(want)) {
			t.Fatalf("netcache: line %#x not allocated in slot %d", line, want)
		}
	}
}

func newSizedHarness(t *testing.T, ncLines int) *harness {
	g := topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 2}
	p := sim.DefaultParams()
	p.NCLines = ncLines
	return &harness{t: t, n: newModule(g, p, 1), g: g}
}

func (h *harness) tagPages() int {
	elems := 0
	h.n.entries.Each(func(*entry) { elems++ })
	return elems / sim.PageLen
}

func (h *harness) encoding() []byte {
	e := snap.New(h.now)
	h.n.Encode(e)
	return e.Bytes()
}

// TestNotInLinesAllocateNothing: a paper-size NC owns no tag page until a
// line is allocated. Peek, an invalidation and a network intervention for
// NotIn lines are answered from the shared zero page; the first local
// miss allocates exactly the page of its slot.
func TestNotInLinesAllocateNothing(t *testing.T) {
	h := newSizedHarness(t, sim.DefaultParams().NCLines)
	var line uint64
	if avg := testing.AllocsPerRun(200, func() {
		line += 64 * sim.PageLen
		if _, _, _, _, ok := h.n.Peek(line); ok {
			t.Fatal("Peek found a line in an empty NC")
		}
	}); avg != 0 {
		t.Errorf("Peek of a NotIn line allocates %.1f objects per call, want 0", avg)
	}
	expectTypes(t, h.deliver(&msg.Message{Type: msg.Invalidate, Line: 0xc0, Home: 0,
		SrcStation: 0, TxnID: 9}), msg.BusInval)
	expectTypes(t, h.deliver(&msg.Message{Type: msg.NetIntervShared, Line: 0x1c0, Home: 0,
		SrcStation: 0, TxnID: 10, ReqStation: 2}), msg.BusIntervention)
	if n := h.tagPages(); n != 0 {
		t.Fatalf("NotIn traffic allocated %d tag pages, want 0", n)
	}
	expectTypes(t, h.localReq(msg.LocalRead, 0x40, 0, false), msg.RemRead)
	if n := h.tagPages(); n != 1 {
		t.Fatalf("one local miss allocated %d tag pages, want 1", n)
	}
	if _, locked, _, _, ok := h.n.Peek(0x40); !ok || !locked {
		t.Fatal("the fetching entry is not present and locked")
	}
	for i := range noEntries.Page {
		if noEntries.Page[i] != (entry{}) {
			t.Fatalf("the shared zero page was written at %d", i)
		}
	}
}

// TestLastPartialPage: an NC whose size is not a multiple of the page
// still maps, conflicts and ejects by NCLines, in its last page too, and
// its encoding does not depend on which pages exist.
func TestLastPartialPage(t *testing.T) {
	const ncLines = sim.PageLen + 44
	line := uint64(sim.PageLen+3) * 64 // slot in the partial second page
	h := newSizedHarness(t, ncLines)
	empty := h.encoding()

	h.localReq(msg.LocalReadEx, line, 0, false)
	h.deliver(&msg.Message{Type: msg.NetDataEx, Line: line, Home: 0,
		SrcStation: 0, Data: 9})
	h.deliver(&msg.Message{Type: msg.LocalWrBack, Line: line, Home: 0,
		SrcMod: 0, SrcStation: 1, Data: 10})
	if st, _, _, data, ok := h.n.Peek(line); !ok || st != LV || data != 10 {
		t.Fatalf("entry = %v data=%d ok=%v, want LV/10", st, data, ok)
	}
	if h.tagPages() != 1 {
		t.Fatalf("%d tag pages, want only the second", h.tagPages())
	}
	conflict := line + ncLines*64
	out := h.localReq(msg.LocalRead, conflict, 1, false)
	expectTypes(t, out, msg.RemWrBack, msg.RemRead)
	if out[0].Line != line || out[0].Data != 10 {
		t.Fatalf("ejection write-back %+v", out[0])
	}
	// After the fill, this NC differs from one that only ever saw the
	// conflicting line in nothing the encoding keeps (deadlines that have
	// passed clamp to zero): slots it never allocated encode as the slots
	// the reference never allocated.
	h.fill(conflict, 5)
	ref := newSizedHarness(t, ncLines)
	ref.localReq(msg.LocalRead, conflict, 1, false)
	ref.fill(conflict, 5)
	if !bytes.Equal(h.encoding(), ref.encoding()) {
		t.Fatal("an NC that allocated and ejected encodes differently from one that never held the line")
	}
	if bytes.Equal(h.encoding(), empty) {
		t.Fatal("encoding ignores the last partial page")
	}
}
