package topo

import (
	"testing"
	"testing/quick"
)

func TestPrototypeGeometry(t *testing.T) {
	g := Prototype
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Stations() != 16 {
		t.Errorf("stations = %d, want 16", g.Stations())
	}
	if g.Procs() != 64 {
		t.Errorf("procs = %d, want 64", g.Procs())
	}
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct {
		g  Geometry
		ok bool
	}{
		{Geometry{1, 1, 1}, true},
		{Geometry{4, 4, 4}, true},
		{Geometry{0, 4, 4}, false},
		{Geometry{4, 0, 4}, false},
		{Geometry{4, 4, 0}, false},
		{Geometry{4, 17, 1}, false},
		{Geometry{4, 1, 17}, false},
		{Geometry{8, 16, 16}, true},
		{Geometry{16, 16, 16}, true},
		{Geometry{17, 1, 1}, false}, // processor masks are 16 bits
	}
	for _, c := range cases {
		if err := c.g.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.g, err, c.ok)
		}
	}
}

func TestStationCoordinateRoundTrip(t *testing.T) {
	g := Prototype
	for s := 0; s < g.Stations(); s++ {
		if got := g.StationAt(g.RingOf(s), g.PosOf(s)); got != s {
			t.Errorf("round trip station %d -> %d", s, got)
		}
	}
}

func TestProcCoordinateRoundTrip(t *testing.T) {
	g := Prototype
	for p := 0; p < g.Procs(); p++ {
		if got := g.ProcAt(g.StationOfProc(p), g.LocalProc(p)); got != p {
			t.Errorf("round trip proc %d -> %d", p, got)
		}
	}
}

func TestMaskForIsExact(t *testing.T) {
	g := Prototype
	for s := 0; s < g.Stations(); s++ {
		m := g.MaskFor(s)
		got, ok := m.Exact(g)
		if !ok || got != s {
			t.Errorf("MaskFor(%d).Exact = (%d, %v)", s, got, ok)
		}
		cov := m.CoveredStations(g)
		if len(cov) != 1 || cov[0] != s {
			t.Errorf("MaskFor(%d) covers %v", s, cov)
		}
	}
}

// Property: the OR of masks covers at least the union of the stations
// (the paper's deliberate overspecification) and never misses one.
func TestMaskOrCoversUnion(t *testing.T) {
	g := Prototype
	f := func(a, b uint8) bool {
		sa, sb := int(a)%g.Stations(), int(b)%g.Stations()
		m := g.MaskFor(sa).Or(g.MaskFor(sb))
		return m.Contains(g, sa) && m.Contains(g, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the covered set is exactly the cartesian product of the two
// bit fields.
func TestCoveredMatchesContains(t *testing.T) {
	g := Prototype
	f := func(rings, stations uint16) bool {
		m := RoutingMask{Rings: rings & 0xF, Stations: stations & 0xF}
		covered := map[int]bool{}
		for _, s := range m.CoveredStations(g) {
			covered[s] = true
		}
		if len(covered) != m.CountCovered(g) {
			return false
		}
		for s := 0; s < g.Stations(); s++ {
			if covered[s] != m.Contains(g, s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInexactExample(t *testing.T) {
	// The paper's Figure 3: OR-ing {station 0, ring 0} with {station 1,
	// ring 1} overspecifies {station 1, ring 0} and {station 0, ring 1}.
	g := Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2}
	m := g.MaskFor(g.StationAt(0, 0)).Or(g.MaskFor(g.StationAt(1, 1)))
	if got := m.CountCovered(g); got != 4 {
		t.Errorf("covered %d stations, want 4 (overspecified)", got)
	}
}

func TestModuleIndices(t *testing.T) {
	g := Prototype
	if g.ModMem() != 4 || g.ModNC() != 5 || g.ModRI() != 6 || g.ModCount() != 7 {
		t.Errorf("module indices %d %d %d %d", g.ModMem(), g.ModNC(), g.ModRI(), g.ModCount())
	}
	for i := 0; i < 4; i++ {
		if !g.IsProcMod(i) {
			t.Errorf("proc %d not recognized", i)
		}
	}
	if g.IsProcMod(g.ModMem()) {
		t.Error("memory module classified as processor")
	}
}

// allMasks enumerates every routing mask expressible in a geometry's bit
// widths, including the zero mask.
func allMasks(g Geometry) []RoutingMask {
	var out []RoutingMask
	for r := 0; r < 1<<uint(g.Rings); r++ {
		for s := 0; s < 1<<uint(g.StationsPerRing); s++ {
			out = append(out, RoutingMask{Rings: uint16(r), Stations: uint16(s)})
		}
	}
	return out
}

func TestCoversOtherMatchesExpansion(t *testing.T) {
	g := Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3}
	for _, m := range allMasks(g) {
		for st := 0; st < g.Stations(); st++ {
			want := false
			for _, c := range m.CoveredStations(g) {
				if c != st {
					want = true
				}
			}
			if got := m.CoversOther(g, st); got != want {
				t.Fatalf("CoversOther(%v, %d) = %v, want %v", m, st, got, want)
			}
		}
	}
}
