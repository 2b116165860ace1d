// Package topo models the NUMAchine machine geometry and the two-field
// routing masks used to steer packets through the ring hierarchy.
//
// The prototype geometry is 4 processors per station, 4 stations per local
// ring and 4 local rings connected by a central ring (64 processors). All
// three dimensions are configurable here. Routing masks have one bit field
// per hierarchy level: a "rings" field selecting local rings and a
// "stations" field selecting station positions within a ring. OR-combining
// masks for several destinations may overspecify stations (the paper's
// "inexact" masks); that imprecision is deliberate and the coherence
// protocol is designed to tolerate it.
package topo

import (
	"fmt"
	"math/bits"
)

// Geometry describes one machine configuration.
type Geometry struct {
	ProcsPerStation int
	StationsPerRing int
	Rings           int
}

// Prototype is the 64-processor configuration described in the paper.
var Prototype = Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 4}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.ProcsPerStation < 1:
		return fmt.Errorf("topo: ProcsPerStation must be >= 1, got %d", g.ProcsPerStation)
	case g.StationsPerRing < 1:
		return fmt.Errorf("topo: StationsPerRing must be >= 1, got %d", g.StationsPerRing)
	case g.Rings < 1:
		return fmt.Errorf("topo: Rings must be >= 1, got %d", g.Rings)
	case g.ProcsPerStation > 16:
		return fmt.Errorf("topo: per-station processor masks hold at most 16 bits (%d processors/station requested)", g.ProcsPerStation)
	case g.StationsPerRing > 16 || g.Rings > 16:
		return fmt.Errorf("topo: routing mask fields hold at most 16 bits per level (%d stations/ring, %d rings requested)", g.StationsPerRing, g.Rings)
	}
	return nil
}

// Stations returns the total number of stations.
func (g Geometry) Stations() int { return g.StationsPerRing * g.Rings }

// Procs returns the total number of processors.
func (g Geometry) Procs() int { return g.Stations() * g.ProcsPerStation }

// RingOf returns the local ring a station is attached to.
func (g Geometry) RingOf(station int) int { return station / g.StationsPerRing }

// PosOf returns the position (slot index bit) of a station on its ring.
func (g Geometry) PosOf(station int) int { return station % g.StationsPerRing }

// StationAt returns the station id at a (ring, pos) coordinate.
func (g Geometry) StationAt(ring, pos int) int { return ring*g.StationsPerRing + pos }

// StationOfProc maps a global processor id to its station.
func (g Geometry) StationOfProc(proc int) int { return proc / g.ProcsPerStation }

// LocalProc maps a global processor id to its index within the station.
func (g Geometry) LocalProc(proc int) int { return proc % g.ProcsPerStation }

// ProcAt returns the global processor id for (station, localProc).
func (g Geometry) ProcAt(station, localProc int) int {
	return station*g.ProcsPerStation + localProc
}

// RoutingMask is the paper's two-field station address. Each level of the
// hierarchy has a bit field; setting multiple bits in a field multicasts.
// The zero mask addresses nothing.
type RoutingMask struct {
	Rings    uint16 // one bit per local ring
	Stations uint16 // one bit per station position within a ring
}

// MaskFor returns the unique (exact) routing mask for a single station.
func (g Geometry) MaskFor(station int) RoutingMask {
	return RoutingMask{
		Rings:    1 << uint(g.RingOf(station)),
		Stations: 1 << uint(g.PosOf(station)),
	}
}

// Or combines two masks, as done when multicasting to several stations.
// The result may cover more stations than the union of the operands.
func (m RoutingMask) Or(o RoutingMask) RoutingMask {
	return RoutingMask{Rings: m.Rings | o.Rings, Stations: m.Stations | o.Stations}
}

// IsZero reports whether the mask addresses no station.
func (m RoutingMask) IsZero() bool { return m.Rings == 0 || m.Stations == 0 }

// Exact reports whether the mask identifies exactly one station, and which.
func (m RoutingMask) Exact(g Geometry) (station int, ok bool) {
	if bits.OnesCount16(m.Rings) != 1 || bits.OnesCount16(m.Stations) != 1 {
		return 0, false
	}
	r := bits.TrailingZeros16(m.Rings)
	p := bits.TrailingZeros16(m.Stations)
	if r >= g.Rings || p >= g.StationsPerRing {
		return 0, false
	}
	return g.StationAt(r, p), true
}

// Contains reports whether the mask covers the given station. Because masks
// are inexact this may be true for stations that were never OR'ed in.
func (m RoutingMask) Contains(g Geometry, station int) bool {
	return m.Rings&(1<<uint(g.RingOf(station))) != 0 &&
		m.Stations&(1<<uint(g.PosOf(station))) != 0
}

// CoveredStations returns every station addressed by the mask, in order.
// This is the cartesian product of the two bit fields (the overspecified
// set for OR-combined masks).
func (m RoutingMask) CoveredStations(g Geometry) []int {
	var out []int
	for r := 0; r < g.Rings; r++ {
		if m.Rings&(1<<uint(r)) == 0 {
			continue
		}
		for p := 0; p < g.StationsPerRing; p++ {
			if m.Stations&(1<<uint(p)) == 0 {
				continue
			}
			out = append(out, g.StationAt(r, p))
		}
	}
	return out
}

// CountCovered returns the number of stations addressed by the mask.
func (m RoutingMask) CountCovered(g Geometry) int {
	nr := bits.OnesCount16(m.Rings & (1<<uint(g.Rings) - 1))
	np := bits.OnesCount16(m.Stations & (1<<uint(g.StationsPerRing) - 1))
	return nr * np
}

// CoversOther reports whether the mask addresses any station besides the
// given one — the home-directory "are there remote sharers" test — without
// expanding the covered set. Pure bit math: with more than one covered
// station at least one must differ, and a single covered station differs
// exactly when it is not the given one.
func (m RoutingMask) CoversOther(g Geometry, station int) bool {
	switch m.CountCovered(g) {
	case 0:
		return false
	case 1:
		s, _ := m.Exact(g)
		return s != station
	}
	return true
}

// MaskForStations OR-combines exact masks for each listed station.
func (g Geometry) MaskForStations(stations ...int) RoutingMask {
	var m RoutingMask
	for _, s := range stations {
		m = m.Or(g.MaskFor(s))
	}
	return m
}

// String renders the mask as rings/stations bit patterns for diagnostics.
func (m RoutingMask) String() string {
	return fmt.Sprintf("mask{rings:%04b stations:%04b}", m.Rings, m.Stations)
}
