package sim

import (
	"math/bits"
	"sync"
)

// PageLen is the number of elements in one page of a Paged store. With
// the tag entries of the secondary and network caches (24 and 32 bytes) a
// page is 6–8 KB: exactly the 256-line primary cache, 1/64 of a paper-size
// secondary cache and 1/256 of a paper-size network cache. A store's page
// table (512 B for a paper-size secondary cache, 2 KB for a network cache)
// is shared until its first write, so smaller pages buy no construction
// time and cost more first-touch allocations during a run; larger ones
// make a machine that touches a few lines pay for many it never reads.
const PageLen = 1 << pageShift

const pageShift = 8

// Page is one page of a Paged store.
type Page[T any] [PageLen]T

// Paged is a direct-mapped tag store: a fixed number of slots of T, each
// line address mapping to exactly one of them, whose backing store is
// allocated a page at a time on first write. It owns the line→slot map
// (slot); the L1 filter, the L2 and the network cache are all this store.
//
// Every page that has not been written aliases one shared, read-only zero
// page, so reading costs the same as reading a flat array plus one
// dependent load — no nil check, no branch. A store that has never been
// written does not even own its page table: it reads a prefix of its
// Zero's shared table, every entry of which points at the zero page, and
// copies it privately on its first Touch. The contract that keeps both
// zero: only Touch returns memory that may be written where the zero value
// stands, and nothing writes a published shared table. A pointer obtained
// from Get or At may be written through only after its contents have been
// seen to be non-zero (a valid cache line, a valid NC entry), which proves
// an earlier Touch of that page.
//
// Pages, once allocated, never move or go away: element pointers are
// stable for the life of the store.
type Paged[T any] struct {
	pages []*Page[T]
	shift uint   // log2(line size)
	mask  uint64 // slots-1 when slots is a power of two (the usual case), else 0
	slots uint64
	zero  *Zero[T]
	own   bool // pages is this store's copy, not a prefix of zero's table
}

// Zero is the zero page of one element type and a read-only table of
// pointers to it, shared by every store built over it. Callers keep one
// per element type (a package-level variable). The table only grows, under
// mu, when a store larger than any before is built; a grown table is a new
// slice, so the prefixes earlier stores read are never written.
type Zero[T any] struct {
	Page Page[T]

	mu    sync.Mutex
	table []*Page[T]
}

// tableOf returns n entries of the shared table, all &z.Page.
func (z *Zero[T]) tableOf(n int) []*Page[T] {
	z.mu.Lock()
	defer z.mu.Unlock()
	if len(z.table) < n {
		t := make([]*Page[T], n)
		for i := range t {
			t[i] = &z.Page
		}
		z.table = t
	}
	return z.table[:n:n]
}

// NewPaged builds a store of slots slots for lines of lineSize bytes over
// zero, whose page and page table it reads until its first Touch.
func NewPaged[T any](slots, lineSize int, zero *Zero[T]) Paged[T] {
	if slots <= 0 || lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("sim: Paged needs slots > 0 and a positive power-of-two line size")
	}
	p := Paged[T]{zero: zero, slots: uint64(slots), shift: uint(bits.TrailingZeros(uint(lineSize)))}
	if slots&(slots-1) == 0 {
		p.mask = uint64(slots - 1)
	}
	p.pages = zero.tableOf((slots + PageLen - 1) >> pageShift)
	return p
}

// Slots returns the number of slots.
func (p *Paged[T]) Slots() int { return int(p.slots) }

// slot returns the slot the line at lineAddr maps to. It sits under every
// reference and every NC message, so the usual power-of-two size takes a
// mask instead of a divide.
func (p *Paged[T]) slot(lineAddr uint64) int {
	i := lineAddr >> p.shift
	if p.mask != 0 {
		return int(i & p.mask)
	}
	return int(i % p.slots)
}

// At returns slot i for reading (see the type comment for when it may be
// written through). It never allocates.
func (p *Paged[T]) At(i int) *T {
	return &p.pages[i>>pageShift][i&(PageLen-1)]
}

// Get returns lineAddr's slot under At's rules.
func (p *Paged[T]) Get(lineAddr uint64) *T { return p.At(p.slot(lineAddr)) }

// Touch returns lineAddr's slot for writing, allocating its page if this
// is the page's first write (and, on the store's first write, its own copy
// of the page table).
func (p *Paged[T]) Touch(lineAddr uint64) *T {
	i := p.slot(lineAddr)
	pg := p.pages[i>>pageShift]
	if pg == &p.zero.Page {
		if !p.own {
			p.pages = append([]*Page[T](nil), p.pages...)
			p.own = true
		}
		pg = new(Page[T])
		p.pages[i>>pageShift] = pg
	}
	return &pg[i&(PageLen-1)]
}

// Each visits, in slot order, every element of every allocated page,
// including those past the store's last slot in the final page — all
// zero, since nothing can Touch them.
func (p *Paged[T]) Each(fn func(*T)) {
	for _, pg := range p.pages {
		if pg == &p.zero.Page {
			continue
		}
		for i := range pg {
			fn(&pg[i])
		}
	}
}
