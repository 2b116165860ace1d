// Package cache models the processor secondary caches (and the tag array
// shape of the network cache). Per §2.3 a secondary cache line is in one of
// the three standard write-back/invalidate states: Invalid, Shared or
// Dirty. The structure is a direct-mapped tag store, like the R4400's
// external secondary cache and the NC.
package cache

import "numachine/internal/sim"

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

// Line is one cache entry, 24 bytes (pinned by TestLineSize). The
// simulator carries a 64-bit value as the line's data so coherence can be
// validated end to end.
type Line struct {
	Addr  uint64 // line-aligned address (tag); meaningful only when State != Invalid
	State State
	Data  uint64
}

// noLines is the page every never-inserted region of every cache reads,
// all Invalid, and the page table every never-inserted cache reads: shared
// process-wide, never written (see sim.Paged).
var noLines sim.Zero[Line]

// Cache is a direct-mapped tag/data store. The tag array is paged: its
// page table is allocated by the first Insert and each page by the first
// Insert into it, so an untouched cache costs this header only.
type Cache struct {
	lines    sim.Paged[Line]
	lineSize uint64
}

// New builds a cache of the given number of lines of lineSize bytes, a
// power of two.
func New(lines, lineSize int) *Cache {
	return &Cache{lines: sim.NewPaged(lines, lineSize, &noLines), lineSize: uint64(lineSize)}
}

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr uint64) uint64 { return addr &^ (c.lineSize - 1) }

// Probe returns the entry holding lineAddr, or nil. A never-inserted slot
// reads as Invalid, and only entries seen to be valid may be written
// through.
func (c *Cache) Probe(lineAddr uint64) *Line {
	if l := c.lines.Get(lineAddr); l.State != Invalid && l.Addr == lineAddr {
		return l
	}
	return nil
}

// Insert places lineAddr with the given state and data in its slot and
// returns the line it displaced (State != Invalid only when a valid entry
// for another address was there).
func (c *Cache) Insert(lineAddr uint64, st State, data uint64) (victim Line) {
	l := c.lines.Touch(lineAddr)
	if l.State != Invalid && l.Addr != lineAddr {
		victim = *l
	}
	*l = Line{Addr: lineAddr, State: st, Data: data}
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
