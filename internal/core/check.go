package core

import (
	"fmt"

	"numachine/internal/cache"
	"numachine/internal/memory"
)

// CheckCoherence validates the single-writer/multiple-reader and
// data-value invariants of the protocol on a quiesced machine:
//
//   - at most one dirty copy of any line exists system-wide;
//   - every valid copy of a line in LV/GV agrees with the home memory;
//   - directory masks are supersets of the actual copy holders;
//   - GI lines have their (exactly identified) owner station actually
//     holding the current value.
//
// It is the backbone of the randomized protocol tests.
func (m *Machine) CheckCoherence() error {
	if !m.Quiesced() {
		return fmt.Errorf("coherence check on a non-quiesced machine")
	}
	lines := map[uint64]bool{}
	for _, mem := range m.Mems {
		mem.ForEachLine(func(line uint64, _ memory.DirState, _ bool, _ uint16, _ uint64) {
			lines[line] = true
		})
	}
	for _, c := range m.CPUs {
		c.L2().ForEach(func(l *cache.Line) { lines[l.Addr] = true })
	}
	for line := range lines {
		if err := m.checkLine(line); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) checkLine(line uint64) error {
	home := m.HomeOf(line)
	st, locked, mask, procs, memData := m.Mems[home].Peek(line)
	if locked {
		return fmt.Errorf("line %#x: home memory still locked after quiesce", line)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("line %#x (home %d, state %v, mask %v, procs %04b): %s",
			line, home, st, mask, procs, fmt.Sprintf(format, args...))
	}

	// Gather every valid copy.
	type copyRec struct {
		station, proc int
		state         cache.State
		data          uint64
	}
	var copies []copyRec
	dirty := 0
	for _, c := range m.CPUs {
		if l := c.L2().Probe(line); l != nil {
			copies = append(copies, copyRec{c.Station, c.GlobalID, l.State, l.Data})
			if l.State == cache.Dirty {
				dirty++
			}
		}
	}
	if dirty > 1 {
		return fail("%d dirty copies", dirty)
	}
	// NC states per station.
	type ncRec struct {
		state memory.DirState
		data  uint64
	}
	ncs := map[int]ncRec{}
	for s := 0; s < m.g.Stations(); s++ {
		if s == home {
			continue
		}
		if state, lk, _, d, ok := m.NCs[s].Peek(line); ok {
			if lk {
				return fail("NC[%d] still locked", s)
			}
			ncs[s] = ncRec{state, d}
		}
	}

	switch st {
	case memory.LV, memory.GV:
		if dirty != 0 {
			return fail("dirty copy with memory valid")
		}
		for _, cp := range copies {
			if cp.data != memData {
				return fail("proc %d shared copy %#x != memory %#x", cp.proc, cp.data, memData)
			}
			if st == memory.LV && cp.station != home {
				return fail("LV but proc %d on station %d holds a copy", cp.proc, cp.station)
			}
			if st == memory.GV && !mask.Contains(m.g, cp.station) {
				return fail("GV mask omits station %d holding a copy", cp.station)
			}
			if cp.station == home && procs&(1<<uint(m.g.LocalProc(cp.proc))) == 0 {
				return fail("processor mask omits local holder %d", cp.proc)
			}
		}
		for s, nc := range ncs {
			switch nc.state {
			case memory.GV:
				if nc.data != memData {
					return fail("NC[%d] GV data %#x != memory %#x", s, nc.data, memData)
				}
				if st == memory.LV {
					return fail("LV but NC[%d] holds GV copy", s)
				}
				if !mask.Contains(m.g, s) {
					return fail("GV mask omits NC[%d]", s)
				}
			case memory.GI:
				// stale tag, fine
			default:
				return fail("NC[%d] in %v while home is %v", s, nc.state, st)
			}
		}
	case memory.LI:
		owner := -1
		for _, cp := range copies {
			if cp.state == cache.Dirty {
				if cp.station != home {
					return fail("LI but dirty copy on station %d", cp.station)
				}
				owner = cp.proc
			} else {
				return fail("LI but proc %d holds a non-dirty copy", cp.proc)
			}
		}
		if owner == -1 {
			return fail("LI with no dirty copy")
		}
		if procs != 1<<uint(m.g.LocalProc(owner)) {
			return fail("LI processor mask %04b does not name owner %d", procs, owner)
		}
		for s, nc := range ncs {
			if nc.state != memory.GI {
				return fail("LI but NC[%d] in %v", s, nc.state)
			}
		}
	case memory.GI:
		ownerSt, ok := mask.Exact(m.g)
		if !ok {
			return fail("GI with inexact mask")
		}
		if ownerSt == home {
			return fail("GI names home as owner")
		}
		// The owner station must hold the current copy.
		found := false
		if nc, ok := ncs[ownerSt]; ok {
			switch nc.state {
			case memory.LV:
				found = true
				if dirty != 0 {
					return fail("NC[%d] LV with a dirty processor copy", ownerSt)
				}
			case memory.LI:
				for _, cp := range copies {
					if cp.station == ownerSt && cp.state == cache.Dirty {
						found = true
					}
				}
				if !found {
					return fail("NC[%d] LI without a local dirty copy", ownerSt)
				}
			case memory.GI:
				// entry went stale after ejection-reallocation; dirty L2 rules below
			default:
				return fail("owner NC[%d] in %v", ownerSt, nc.state)
			}
		}
		if !found {
			// NotIn (or stale GI): the dirty data must be in an owner L2.
			for _, cp := range copies {
				if cp.station == ownerSt && cp.state == cache.Dirty {
					found = true
				}
			}
			if !found {
				return fail("owner station %d holds no current copy", ownerSt)
			}
		}
		for _, cp := range copies {
			if cp.station != ownerSt {
				return fail("GI but proc %d on station %d holds a copy", cp.proc, cp.station)
			}
			if cp.state == cache.Shared {
				// Shared copies may coexist with an NC LV entry.
				if nc, ok := ncs[ownerSt]; !ok || nc.state != memory.LV {
					if dirty > 0 {
						return fail("shared and dirty copies coexist on owner station")
					}
				}
				if nc, ok := ncs[ownerSt]; ok && nc.state == memory.LV && cp.data != nc.data {
					return fail("owner-station shared copy %#x != NC %#x", cp.data, nc.data)
				}
			}
		}
		for s, nc := range ncs {
			if s != ownerSt && nc.state != memory.GI {
				return fail("GI but NC[%d] in %v", s, nc.state)
			}
		}
	}
	return nil
}
