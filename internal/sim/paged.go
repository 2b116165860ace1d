package sim

// PageLen is the number of elements in one page of a Paged store. With
// the 32-byte tag entries of the secondary and network caches a page is
// 8 KB: exactly the 256-line primary cache, 1/64 of a paper-size
// secondary cache and 1/256 of a paper-size network cache. Smaller pages
// buy no construction time (the page tables below are already ~1 KB per
// cache) and cost more first-touch allocations during a run; larger ones
// make a machine that touches a few lines pay for many it never reads.
const PageLen = 256

// Page is one page of a Paged store.
type Page[T any] [PageLen]T

// Paged is a fixed-size array of rows, each `width` consecutive elements of
// T, whose backing store is allocated a page at a time on first write. A
// row never straddles a page: a page holds the largest power-of-two number
// of rows that fits in PageLen elements, and any remainder is left unused.
//
// Every page that has not been written aliases one shared, read-only zero
// page, so reading costs the same as reading a flat array plus one
// dependent load — no nil check, no branch. The contract that keeps the
// zero page zero: only Touch returns memory that may be written where the
// zero value stands. A pointer obtained from Row may be written through
// only after its contents have been seen to be non-zero (a valid cache
// line, a valid NC entry), which proves an earlier Touch of that page.
//
// Pages, once allocated, never move or go away: element pointers are
// stable for the life of the store.
type Paged[T any] struct {
	pages []*Page[T]
	width int
	shift uint // log2(rows per page)
	mask  int  // rows per page - 1
	zero  *Page[T]
}

// NewPaged builds a store of rows rows of width elements over the given
// zero page, which callers share between all stores of one element type
// (a package-level variable that nothing writes). It panics when a row
// does not fit in a page.
func NewPaged[T any](rows, width int, zero *Page[T]) Paged[T] {
	if rows <= 0 || width <= 0 || width > PageLen {
		panic("sim: Paged needs rows > 0 and 0 < width <= PageLen")
	}
	var shift uint
	for width<<(shift+1) <= PageLen {
		shift++
	}
	p := Paged[T]{zero: zero, width: width, shift: shift, mask: 1<<shift - 1}
	p.pages = make([]*Page[T], (rows+p.mask)>>shift)
	for i := range p.pages {
		p.pages[i] = zero
	}
	return p
}

// Row returns row r for reading (see the type comment for when it may be
// written through). It never allocates.
func (p *Paged[T]) Row(r int) []T {
	o := (r & p.mask) * p.width
	return p.pages[r>>p.shift][o : o+p.width]
}

// Get returns the first element of row r — in a width-1 store, element r
// — under Row's rules. It never allocates.
func (p *Paged[T]) Get(r int) *T {
	return &p.pages[r>>p.shift][(r&p.mask)*p.width]
}

// Touch returns row r for writing, allocating its page if this is the
// page's first write.
func (p *Paged[T]) Touch(r int) []T {
	pg := p.pages[r>>p.shift]
	if pg == p.zero {
		pg = new(Page[T])
		p.pages[r>>p.shift] = pg
	}
	o := (r & p.mask) * p.width
	return pg[o : o+p.width]
}

// Each visits, in row order, every element of every allocated page,
// including rows past the store's last row in the final page and the
// unused remainder of a page — all zero, since nothing can Touch them.
func (p *Paged[T]) Each(fn func(*T)) {
	used := (p.mask + 1) * p.width
	for _, pg := range p.pages {
		if pg == p.zero {
			continue
		}
		for i := 0; i < used; i++ {
			fn(&pg[i])
		}
	}
}
