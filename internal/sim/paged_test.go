package sim

import (
	"fmt"
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
				var zero Page[uint32]
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
					base := uintptr(unsafe.Pointer(&zero))
					if a := uintptr(unsafe.Pointer(e)); a < base || a >= base+unsafe.Sizeof(zero) {
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
				if zero != (Page[uint32]{}) {
					t.Fatal("the zero page was written")
				}
			})
		}
	}
}

// TestPagedAllocatesOnTouchOnly: reads never allocate; a Touch allocates
// exactly its page, once.
func TestPagedAllocatesOnTouchOnly(t *testing.T) {
	var zero Page[uint64]
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
	*p.Touch(5) = 1
	if avg := testing.AllocsPerRun(100, func() { *p.Touch(6)++ }); avg != 0 {
		t.Errorf("Touch of an allocated page allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1, func() { *p.Touch(40 * PageLen) = 2 }); avg > 1 {
		t.Errorf("first Touch of a page allocates %.1f objects, want 1", avg)
	}
}

func TestPagedRejectsBadGeometry(t *testing.T) {
	var zero Page[byte]
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
