package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"numachine/internal/sim"
	"numachine/internal/snap"
)

// flatCache is the tag store as one eagerly allocated slice indexed by
// (line/lineSize) mod lines, kept here as the reference the paged Cache is
// compared against operation by operation.
type flatCache struct {
	lineSize uint64
	lines    []Line
}

func newFlat(lines, lineSize int) *flatCache {
	return &flatCache{lineSize: uint64(lineSize), lines: make([]Line, lines)}
}

func (c *flatCache) slot(lineAddr uint64) *Line {
	return &c.lines[(lineAddr/c.lineSize)%uint64(len(c.lines))]
}

func (c *flatCache) probe(lineAddr uint64) *Line {
	if l := c.slot(lineAddr); l.State != Invalid && l.Addr == lineAddr {
		return l
	}
	return nil
}

func (c *flatCache) insert(lineAddr uint64, st State, data uint64) (victim Line) {
	l := c.slot(lineAddr)
	if l.State != Invalid && l.Addr != lineAddr {
		victim = *l
	}
	*l = Line{Addr: lineAddr, State: st, Data: data}
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
	e.Int(len(c.lines))
	for i := range c.lines {
		l := &c.lines[i]
		if l.State == Invalid {
			e.Byte(0)
			continue
		}
		e.Byte(1)
		e.U64(l.Addr)
		e.Byte(byte(l.State))
		e.U64(l.Data)
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
// return values, victims, ForEach order and Encode bytes. The line counts
// cover powers of two (the mask) and everything else (the modulo), stores
// of one line, of one page, of a partly filled last page and of many
// pages, and an address range wide enough that most pages of the large
// ones are never inserted into.
//
// The subtest names are the ones the test floor pins from when the store
// was set-associative; it has one way now, and sets × assoc is just the
// line count.
func TestPagedMatchesFlatReference(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 4} {
		for _, sets := range []int{1, 7, 100, sim.PageLen, sim.PageLen + 1, 3*sim.PageLen + 37, 5000} {
			lines := sets * assoc
			t.Run(fmt.Sprintf("sets=%d/assoc=%d", sets, assoc), func(t *testing.T) {
				const lineSize = 64
				rng := rand.New(rand.NewSource(int64(sets)*31 + int64(assoc)))
				c := New(lines, lineSize)
				f := newFlat(lines, lineSize)
				// A hot window (conflicts) inside a sparse range (mostly
				// never-inserted slots).
				hot := uint64(lines) * 3
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
				for i := range noLines.Page {
					if noLines.Page[i] != (Line{}) {
						t.Fatalf("the shared zero page was written at %d: %+v", i, noLines.Page[i])
					}
				}
			})
		}
	}
}

// TestReadsOfNeverInsertedLinesAllocateNothing pins the read path of an
// untouched cache: Probe and Invalidate on lines nothing inserted must
// answer from the shared zero page.
func TestReadsOfNeverInsertedLinesAllocateNothing(t *testing.T) {
	c := New(16384, 64)
	c.Insert(0, Dirty, 1) // one page exists; the lines below are on others
	var a uint64 = 64 * sim.PageLen
	avg := testing.AllocsPerRun(200, func() {
		a += 64 * sim.PageLen
		if c.Probe(a) != nil {
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
	const lines = 64 * sim.PageLen
	c := New(lines, 64)
	c.Insert(0x40, Dirty, 11)
	l := c.Probe(0x40)
	if l == nil {
		t.Fatal("inserted line not found")
	}
	for s := 1; s < lines-1; s += sim.PageLen / 4 { // several slots on every other page
		c.Insert(0x40+uint64(s)*64, Shared, uint64(s))
	}
	l.Data = 12
	if again := c.Probe(0x40); again != l || again.Data != 12 || again.State != Dirty {
		t.Fatalf("line moved or lost its contents: %p %+v, was %p", again, again, l)
	}
}
