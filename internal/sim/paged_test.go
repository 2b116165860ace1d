package sim

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// TestPagedLayout checks the store's geometry and its line→slot map for
// slot counts that are and are not powers of two (the mask and the modulo
// path) and that do and do not fill their last page: a line maps to slot
// (line/lineSize) mod slots, slots do not overlap, Get/At/Touch address
// the same memory, untouched slots read as zero from the shared page, and
// Each visits the written elements in slot order.
//
// The subtest names are the ones the test floor pins from when a store had
// rows of `width` elements; a store has none now, and width × rows is just
// the slot count.
func TestPagedLayout(t *testing.T) {
	const lineSize = 64
	for _, width := range []int{1, 2, 3, 4, 5, 7, 100, PageLen} {
		for _, rows := range []int{1, 2, PageLen - 1, PageLen, PageLen + 1, 3*PageLen + 17} {
			slots := width * rows
			t.Run(fmt.Sprintf("width=%d/rows=%d", width, rows), func(t *testing.T) {
				var zero Zero[uint32]
				p := NewPaged(slots, lineSize, &zero)
				if p.Slots() != slots {
					t.Fatalf("Slots() = %d, want %d", p.Slots(), slots)
				}
				// lineOf returns an address that maps to slot s: aliased zero
				// to three store sizes up, with a sub-line offset the map
				// must ignore.
				lineOf := func(s int) uint64 {
					return uint64(s+(s%4)*slots)*lineSize + uint64(s%lineSize)
				}
				// Reads before any write come from the zero page.
				for _, s := range []int{0, slots / 2, slots - 1} {
					if got := p.slot(lineOf(s)); got != s {
						t.Fatalf("slot(%#x) = %d, want %d", lineOf(s), got, s)
					}
					e := p.Get(lineOf(s))
					if e != p.At(s) {
						t.Fatalf("Get(%#x) and At(%d) disagree", lineOf(s), s)
					}
					base := uintptr(unsafe.Pointer(&zero.Page))
					if a := uintptr(unsafe.Pointer(e)); a < base || a >= base+unsafe.Sizeof(zero.Page) {
						t.Fatalf("slot %d of an untouched store is outside the zero page", s)
					}
				}
				// Write every third slot; the value encodes the slot.
				seen := map[*uint32]bool{}
				for s := 0; s < slots; s += 3 {
					e := p.Touch(lineOf(s))
					if seen[e] {
						t.Fatalf("slot %d overlaps an earlier slot", s)
					}
					seen[e] = true
					*e = uint32(s + 1)
					if p.Get(lineOf(s)) != e || p.At(s) != e {
						t.Fatalf("Get/At do not address touched slot %d", s)
					}
				}
				for s := 0; s < slots; s++ {
					want := uint32(0)
					if s%3 == 0 {
						want = uint32(s + 1)
					}
					if v := *p.At(s); v != want {
						t.Fatalf("slot %d = %d, want %d", s, v, want)
					}
				}
				var last uint32
				p.Each(func(v *uint32) {
					if *v == 0 {
						return
					}
					if *v <= last {
						t.Fatalf("Each out of slot order: %d after %d", *v, last)
					}
					last = *v
				})
				if want := uint32((slots-1)/3*3 + 1); last != want {
					t.Fatalf("Each ended at %d, want %d", last, want)
				}
				if zero.Page != (Page[uint32]{}) {
					t.Fatal("the zero page was written")
				}
			})
		}
	}
}

// TestPagedAllocatesOnTouchOnly: building a store and reading it never
// allocate; a store's first Touch allocates exactly its page table and its
// page, every later first Touch of a page exactly the page, and a Touch of
// an allocated page nothing.
func TestPagedAllocatesOnTouchOnly(t *testing.T) {
	var zero Zero[uint64]
	p := NewPaged(64*PageLen, 1, &zero)
	var line uint64
	if avg := testing.AllocsPerRun(100, func() {
		line += PageLen
		if *p.Get(line) != 0 || *p.At(int(line % (64 * PageLen))) != 0 {
			t.Fatal("untouched element is not zero")
		}
	}); avg != 0 {
		t.Errorf("reads allocate %.1f objects per call, want 0", avg)
	}
	// Building a store allocates nothing (the table is shared); its first
	// Touch allocates its own table and the page.
	var q Paged[uint64]
	if n := testing.AllocsPerRun(20, func() {
		q = NewPaged(64*PageLen, 1, &zero)
		*q.Touch(5) = 1
	}); n != 2 {
		t.Errorf("a new store and its first Touch allocate %.1f objects, want 2 (table copy and page)", n)
	}
	*p.Touch(5) = 1
	if avg := testing.AllocsPerRun(100, func() { *p.Touch(6)++ }); avg != 0 {
		t.Errorf("Touch of an allocated page allocates %.1f objects per call, want 0", avg)
	}
	pg := 2
	if avg := testing.AllocsPerRun(50, func() {
		*p.Touch(uint64(pg) * PageLen) = 2
		pg++
	}); avg != 1 {
		t.Errorf("first Touch of a page allocates %.1f objects, want 1", avg)
	}
}

// TestPagedSharesZeroTable: stores over one Zero read one shared page
// table until each is first written, and a write to one store, or a new
// larger store, never shows through another.
func TestPagedSharesZeroTable(t *testing.T) {
	var zero Zero[uint64]
	a := NewPaged(8*PageLen, 1, &zero)
	b := NewPaged(8*PageLen, 1, &zero)
	if &a.pages[0] != &b.pages[0] {
		t.Fatal("two untouched stores over one Zero do not alias one table")
	}
	*a.Touch(3) = 7
	if &a.pages[0] == &b.pages[0] {
		t.Fatal("a touched store still reads the shared table")
	}
	if b.At(3) != &zero.Page[3] || *b.At(3) != 0 {
		t.Fatal("a Touch of one store shows through another")
	}
	for i := uint64(0); i < 4000; i++ {
		*a.Touch(i * 37 % (8 * PageLen))++
	}
	sharedOK := func(when string) {
		t.Helper()
		for i, pg := range zero.table {
			if pg != &zero.Page {
				t.Fatalf("%s: shared table entry %d points off the zero page", when, i)
			}
		}
		if zero.Page != (Page[uint64]{}) {
			t.Fatalf("%s: the zero page was written", when)
		}
	}
	sharedOK("after 4000 touches")

	// A store larger than any before grows the shared table; the smaller
	// stores keep their tables and contents.
	c := NewPaged(32*PageLen, 1, &zero)
	if len(zero.table) != 32 || len(c.pages) != 32 {
		t.Fatalf("shared table has %d entries, store %d; want 32", len(zero.table), len(c.pages))
	}
	if *a.At(3) == 0 || b.At(3) != &zero.Page[3] {
		t.Fatal("growing the shared table disturbed an existing store")
	}
	*c.Touch(31*PageLen + 1) = 9
	if *c.At(31*PageLen + 1) != 9 || *b.At(PageLen + 1) != 0 {
		t.Fatal("the grown store's Touch is wrong or shows through")
	}
	sharedOK("after growth")
}

// TestPagedConcurrentStores builds, touches and reads stores over one Zero
// from several goroutines at once, as the station shards of parallel
// machine builds and sweep workers do; under -race it proves the shared
// table is only read after publication.
func TestPagedConcurrentStores(t *testing.T) {
	var zero Zero[uint64]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				slots := (1 + (w*20+k)%24) * PageLen // sizes that grow the table
				p := NewPaged(slots, 1, &zero)
				for i := 0; i < slots; i += 97 {
					if *p.At(i) != 0 {
						t.Errorf("untouched slot %d of a fresh store reads %d", i, *p.At(i))
						return
					}
				}
				for i := w; i < slots; i += 131 {
					*p.Touch(uint64(i)) = uint64(i + 1)
				}
				for i := w; i < slots; i += 131 {
					if *p.At(i) != uint64(i+1) {
						t.Errorf("slot %d reads %d, want %d", i, *p.At(i), i+1)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if zero.Page != (Page[uint64]{}) {
		t.Fatal("the zero page was written")
	}
}

func TestPagedRejectsBadGeometry(t *testing.T) {
	var zero Zero[byte]
	for _, g := range [][2]int{{0, 64}, {-1, 64}, {4, 0}, {4, 48}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPaged accepted %d slots of %d-byte lines", g[0], g[1])
				}
			}()
			NewPaged(g[0], g[1], &zero)
		}()
	}
}
