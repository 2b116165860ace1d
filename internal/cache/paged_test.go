package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"numachine/internal/sim"
	"numachine/internal/snap"
)

// flatCache is the tag store as it was before paging — one eagerly
// allocated set-major slice — kept here as the reference the paged Cache
// is compared against operation by operation.
type flatCache struct {
	sets, assoc int
	lineSize    uint64
	lines       []Line
	clock       int64

	hits, misses, evictions, dirtyEvictions int64
}

func newFlat(totalLines, assoc, lineSize int) *flatCache {
	return &flatCache{sets: totalLines / assoc, assoc: assoc,
		lineSize: uint64(lineSize), lines: make([]Line, totalLines)}
}

func (c *flatCache) set(lineAddr uint64) []Line {
	s := int((lineAddr / c.lineSize) % uint64(c.sets))
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

func (c *flatCache) lookup(lineAddr uint64) *Line {
	c.clock++
	if l := c.probe(lineAddr); l != nil {
		l.lastUse = c.clock
		c.hits++
		return l
	}
	c.misses++
	return nil
}

func (c *flatCache) probe(lineAddr uint64) *Line {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == lineAddr {
			return &set[i]
		}
	}
	return nil
}

func (c *flatCache) insert(lineAddr uint64, st State, data uint64) (victim Line) {
	c.clock++
	set := c.set(lineAddr)
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
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		victim = set[slot]
		c.evictions++
		if victim.State == Dirty {
			c.dirtyEvictions++
		}
	}
	set[slot] = Line{Addr: lineAddr, State: st, Data: data, lastUse: c.clock}
	return victim
}

func (c *flatCache) invalidate(lineAddr uint64) (Line, bool) {
	if l := c.probe(lineAddr); l != nil {
		old := *l
		*l = Line{}
		return old, true
	}
	return Line{}, false
}

func (c *flatCache) forEach(fn func(*Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}

// encode is Cache.Encode over the flat slice.
func (c *flatCache) encode(e *snap.Enc) {
	e.Int(c.sets)
	e.Int(c.assoc)
	for s := 0; s < c.sets; s++ {
		set := c.lines[s*c.assoc : (s+1)*c.assoc]
		for i := range set {
			if set[i].State == Invalid {
				e.Byte(0)
				continue
			}
			e.Byte(1)
			e.U64(set[i].Addr)
			e.Byte(byte(set[i].State))
			e.U64(set[i].Data)
			rank := 0
			for j := range set {
				if j != i && set[j].State != Invalid && set[j].lastUse > set[i].lastUse {
					rank++
				}
			}
			e.Byte(byte(rank))
		}
	}
}

func lineOrNil(l *Line) Line {
	if l == nil {
		return Line{}
	}
	return *l
}

// TestPagedMatchesFlatReference drives the paged cache and the flat
// reference with the same random operation sequence and demands the same
// return values, victims, statistics, ForEach order and Encode bytes.
// The shapes cover every associativity class (direct-mapped, power of
// two, odd), set counts that are not powers of two and do not fill their
// last page, stores of one page and of many, and an address range wide
// enough that most pages of the large shapes are never inserted into.
func TestPagedMatchesFlatReference(t *testing.T) {
	type shape struct{ sets, assoc int }
	var shapes []shape
	for _, assoc := range []int{1, 2, 3, 4} {
		for _, sets := range []int{1, 7, 100, sim.PageLen, sim.PageLen + 1, 3*sim.PageLen + 37, 5000} {
			shapes = append(shapes, shape{sets, assoc})
		}
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("sets=%d/assoc=%d", sh.sets, sh.assoc), func(t *testing.T) {
			const lineSize = 64
			rng := rand.New(rand.NewSource(int64(sh.sets)*31 + int64(sh.assoc)))
			c := New(sh.sets*sh.assoc, sh.assoc, lineSize)
			f := newFlat(sh.sets*sh.assoc, sh.assoc, lineSize)
			// A hot window (conflicts, LRU decisions) inside a sparse range
			// (mostly never-inserted sets).
			hot := uint64(sh.sets*sh.assoc) * 3
			addr := func() uint64 {
				if rng.Intn(4) == 0 {
					return uint64(rng.Int63n(1<<30)) * lineSize
				}
				return uint64(rng.Int63n(int64(hot))) * lineSize
			}
			check := func(step int) {
				t.Helper()
				var got, want []Line
				c.ForEach(func(l *Line) { got = append(got, *l) })
				f.forEach(func(l *Line) { want = append(want, *l) })
				if len(got) != len(want) {
					t.Fatalf("step %d: ForEach visited %d lines, reference %d", step, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("step %d: ForEach[%d] = %+v, reference %+v", step, i, got[i], want[i])
					}
				}
				ge, we := snap.New(0), snap.New(0)
				c.Encode(ge)
				f.encode(we)
				if !bytes.Equal(ge.Bytes(), we.Bytes()) {
					t.Fatalf("step %d: Encode differs from the flat encoding", step)
				}
			}
			check(-1) // an empty paged cache encodes as an empty flat one
			const steps = 4000
			for i := 0; i < steps; i++ {
				a := addr()
				switch op := rng.Intn(10); {
				case op < 4:
					st := State(1 + rng.Intn(2))
					d := rng.Uint64()
					if g, w := c.Insert(a, st, d), f.insert(a, st, d); g != w {
						t.Fatalf("step %d: Insert(%#x) victim %+v, reference %+v", i, a, g, w)
					}
				case op < 6:
					if g, w := lineOrNil(c.Lookup(a)), lineOrNil(f.lookup(a)); g != w {
						t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", i, a, g, w)
					}
				case op < 8:
					if g, w := lineOrNil(c.Probe(a)), lineOrNil(f.probe(a)); g != w {
						t.Fatalf("step %d: Probe(%#x) = %+v, reference %+v", i, a, g, w)
					}
				case op < 9:
					go1, gok := c.Invalidate(a)
					wo, wok := f.invalidate(a)
					if go1 != wo || gok != wok {
						t.Fatalf("step %d: Invalidate(%#x) = %+v,%v, reference %+v,%v", i, a, go1, gok, wo, wok)
					}
				default:
					// Write through a probed pointer, as the CPU does on a
					// write hit or a downgrade.
					if l := c.Probe(a); l != nil {
						l.State, l.Data = Dirty, uint64(i)
					}
					if l := f.probe(a); l != nil {
						l.State, l.Data = Dirty, uint64(i)
					}
				}
				if i%500 == 0 {
					check(i)
				}
			}
			check(steps)
			if c.Hits != f.hits || c.Misses != f.misses || c.Evictions != f.evictions || c.DirtyEvictions != f.dirtyEvictions {
				t.Fatalf("statistics differ: %d/%d/%d/%d, reference %d/%d/%d/%d",
					c.Hits, c.Misses, c.Evictions, c.DirtyEvictions, f.hits, f.misses, f.evictions, f.dirtyEvictions)
			}
			for i := range noLines {
				if noLines[i] != (Line{}) {
					t.Fatalf("the shared zero page was written at %d: %+v", i, noLines[i])
				}
			}
		})
	}
}

// TestReadsOfNeverInsertedLinesAllocateNothing pins the read path of an
// untouched cache: Probe, Lookup and Invalidate on lines nothing inserted
// must answer from the shared zero page.
func TestReadsOfNeverInsertedLinesAllocateNothing(t *testing.T) {
	c := New(16384, 1, 64)
	c.Insert(0, Dirty, 1) // one page exists; the lines below are on others
	var a uint64 = 64 * sim.PageLen
	avg := testing.AllocsPerRun(200, func() {
		a += 64 * sim.PageLen
		if c.Probe(a) != nil || c.Lookup(a) != nil {
			t.Fatal("hit on a never-inserted line")
		}
		if _, ok := c.Invalidate(a); ok {
			t.Fatal("invalidated a never-inserted line")
		}
	})
	if avg != 0 {
		t.Errorf("reads of never-inserted lines allocate %.1f objects per call, want 0", avg)
	}
}

// TestLinePointerStableAcrossInserts: the CPU and the fast-hit front end
// hold *Line pointers across other fills, so allocating further pages
// must never move an existing line.
func TestLinePointerStableAcrossInserts(t *testing.T) {
	c := New(64*sim.PageLen, 2, 64)
	c.Insert(0x40, Dirty, 11)
	l := c.Lookup(0x40)
	if l == nil {
		t.Fatal("inserted line not found")
	}
	for s := 1; s < c.Sets(); s += sim.PageLen / 4 { // several sets on every other page
		c.Insert(0x40+uint64(s)*64, Shared, uint64(s))
	}
	l.Data = 12
	if again := c.Probe(0x40); again != l || again.Data != 12 || again.State != Dirty {
		t.Fatalf("line moved or lost its contents: %p %+v, was %p", again, again, l)
	}
}
