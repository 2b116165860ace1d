package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestPagedLayout checks the store's geometry for every width class and
// for row counts that do and do not fill their last page: a row lies in
// one page, rows do not overlap, Row/Get/Touch address the same memory,
// untouched rows read as zero from the shared page, and Each visits the
// written elements in row order.
func TestPagedLayout(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 5, 7, 100, PageLen} {
		for _, rows := range []int{1, 2, PageLen - 1, PageLen, PageLen + 1, 3*PageLen + 17} {
			t.Run(fmt.Sprintf("width=%d/rows=%d", width, rows), func(t *testing.T) {
				var zero Page[uint32]
				p := NewPaged(rows, width, &zero)
				perPage := p.mask + 1
				if perPage*width > PageLen || 2*perPage*width <= PageLen {
					t.Fatalf("rows per page = %d: not the largest power of two that fits", perPage)
				}
				// Reads before any write come from the zero page.
				for _, r := range []int{0, rows / 2, rows - 1} {
					row := p.Row(r)
					if len(row) != width || &row[0] != p.Get(r) {
						t.Fatalf("Row(%d): len %d, Get disagrees", r, len(row))
					}
					base := uintptr(unsafe.Pointer(&zero))
					if a := uintptr(unsafe.Pointer(&row[0])); a < base || a >= base+unsafe.Sizeof(zero) {
						t.Fatalf("Row(%d) of an untouched store is outside the zero page", r)
					}
				}
				// Write every third row; value encodes (row, way).
				seen := map[*uint32]bool{}
				for r := 0; r < rows; r += 3 {
					row := p.Touch(r)
					if len(row) != width {
						t.Fatalf("Touch(%d): len %d", r, len(row))
					}
					for w := range row {
						if seen[&row[w]] {
							t.Fatalf("row %d way %d overlaps an earlier row", r, w)
						}
						seen[&row[w]] = true
						row[w] = uint32(r*width + w + 1)
					}
					pg := p.pages[r>>p.shift]
					lo, hi := uintptr(unsafe.Pointer(pg)), uintptr(unsafe.Pointer(pg))+unsafe.Sizeof(*pg)
					if a, b := uintptr(unsafe.Pointer(&row[0])), uintptr(unsafe.Pointer(&row[width-1])); a < lo || b >= hi {
						t.Fatalf("row %d straddles its page", r)
					}
					if again := p.Row(r); &again[0] != &row[0] || p.Get(r) != &row[0] {
						t.Fatalf("Row/Get(%d) do not address the touched row", r)
					}
				}
				for r := 0; r < rows; r++ {
					for w, v := range p.Row(r) {
						want := uint32(0)
						if r%3 == 0 {
							want = uint32(r*width + w + 1)
						}
						if v != want {
							t.Fatalf("row %d way %d = %d, want %d", r, w, v, want)
						}
					}
				}
				var last uint32
				p.Each(func(v *uint32) {
					if *v == 0 {
						return
					}
					if *v <= last {
						t.Fatalf("Each out of row order: %d after %d", *v, last)
					}
					last = *v
				})
				if want := uint32(((rows-1)/3*3)*width + width); last != want {
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
	r := 0
	if avg := testing.AllocsPerRun(100, func() {
		r += PageLen
		if *p.Get(r % (64 * PageLen)) != 0 || p.Row(r % (64 * PageLen))[0] != 0 {
			t.Fatal("untouched element is not zero")
		}
	}); avg != 0 {
		t.Errorf("reads allocate %.1f objects per call, want 0", avg)
	}
	p.Touch(5)[0] = 1
	if avg := testing.AllocsPerRun(100, func() { p.Touch(6)[0]++ }); avg != 0 {
		t.Errorf("Touch of an allocated page allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1, func() { p.Touch(40 * PageLen)[0] = 2 }); avg > 1 {
		t.Errorf("first Touch of a page allocates %.1f objects, want 1", avg)
	}
}

func TestPagedRejectsRowWiderThanPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPaged accepted a row wider than a page")
		}
	}()
	var zero Page[byte]
	NewPaged(4, PageLen+1, &zero)
}
