// Package cache models the processor secondary caches (and the tag array
// shape of the network cache). Per §2.3 a secondary cache line is in one of
// the three standard write-back/invalidate states: Invalid, Shared or
// Dirty. The structure is a set-associative tag store with LRU replacement
// (direct-mapped when associativity is 1, as in the NC).
package cache

import (
	"math/bits"

	"numachine/internal/sim"
)

// State is a secondary-cache line state.
type State uint8

const (
	// Invalid: no copy present.
	Invalid State = iota
	// Shared: clean copy; other caches and the home location may also hold it.
	Shared
	// Dirty: the only valid copy in the system resides here.
	Dirty
)

// String returns the usual mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Dirty:
		return "D"
	}
	return "?"
}

// Line is one cache entry. The simulator carries a 64-bit value as the
// line's data so coherence can be validated end to end.
type Line struct {
	Addr  uint64 // line-aligned address (tag); meaningful only when State != Invalid
	State State
	Data  uint64

	lastUse int64 // LRU clock
}

// noLines is the page every never-inserted region of every cache reads:
// all Invalid, shared machine-wide, never written (see sim.Paged).
var noLines sim.Page[Line]

// Cache is a set-associative tag/data store. The tag array is paged and
// allocated on first Insert, so an untouched cache costs its page table.
type Cache struct {
	// The fields the read path loads come first, together.
	sets      uint64
	lineShift uint
	lines     sim.Paged[Line] // one row per set, set-major
	assoc     int
	lineSize  uint64
	clock     int64

	// Statistics.
	Hits, Misses, Evictions, DirtyEvictions int64
}

// New builds a cache with capacity totalLines, the given associativity and
// line size in bytes. totalLines must be a multiple of assoc, the line
// size a power of two, and a set must fit in one tag-store page (assoc <=
// sim.PageLen).
func New(totalLines, assoc, lineSize int) *Cache {
	if totalLines <= 0 || assoc <= 0 || totalLines%assoc != 0 {
		panic("cache: totalLines must be a positive multiple of assoc")
	}
	if lineSize <= 0 || lineSize&(lineSize-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	return &Cache{
		sets:      uint64(totalLines / assoc),
		assoc:     assoc,
		lineSize:  uint64(lineSize),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		lines:     sim.NewPaged(totalLines/assoc, assoc, &noLines),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.sets) }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ (c.lineSize - 1) }

// index returns the set lineAddr maps to.
func (c *Cache) index(lineAddr uint64) int {
	return int((lineAddr >> c.lineShift) % c.sets)
}

// set returns lineAddr's set for reading: a never-inserted set reads as
// all Invalid, and only entries seen to be valid may be written through.
func (c *Cache) set(lineAddr uint64) []Line {
	return c.lines.Row(c.index(lineAddr))
}

// Lookup returns the entry holding lineAddr, or nil. It refreshes LRU state
// and counts a hit or miss.
func (c *Cache) Lookup(lineAddr uint64) *Line {
	c.clock++
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			set[i].lastUse = c.clock
			c.Hits++
			return &set[i]
		}
	}
	c.Misses++
	return nil
}

// Probe is like Lookup but does not disturb LRU state or statistics; it is
// used by interventions, invalidations and the invariant checker.
func (c *Cache) Probe(lineAddr uint64) *Line {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// Insert places lineAddr with the given state and data, evicting the LRU
// entry of its set if needed. It returns the evicted line (State != Invalid
// only when a valid entry was displaced).
func (c *Cache) Insert(lineAddr uint64, st State, data uint64) (victim Line) {
	c.clock++
	set := c.lines.Touch(c.index(lineAddr))
	// Reuse an existing or invalid slot first.
	slot := -1
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			slot = i
			break
		}
		if set[i].State == Invalid && slot == -1 {
			slot = i
		}
	}
	if slot == -1 {
		// Evict the least recently used entry.
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		victim = set[slot]
		c.Evictions++
		if victim.State == Dirty {
			c.DirtyEvictions++
		}
	}
	set[slot] = Line{Addr: lineAddr, State: st, Data: data, lastUse: c.clock}
	return victim
}

// Invalidate removes lineAddr if present, returning the line it held.
func (c *Cache) Invalidate(lineAddr uint64) (old Line, ok bool) {
	if l := c.Probe(lineAddr); l != nil {
		old = *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

// ForEach visits every valid line (used by block operations and checkers).
func (c *Cache) ForEach(fn func(*Line)) {
	c.lines.Each(func(l *Line) {
		if l.State != Invalid {
			fn(l)
		}
	})
}
