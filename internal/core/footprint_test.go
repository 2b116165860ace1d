package core

import (
	"runtime"
	"strings"
	"testing"

	"numachine/internal/topo"
)

// TestNewFootprint is the construction-cost gate: a paper-size machine
// (64 CPUs x 1 MB L2, 16 stations x 4 MB NC) must cost what its
// components cost, not what its caches could one day hold. The tag stores
// are paged and read one shared zero page table until their first insert,
// the coherence histograms, a CPU's monitoring tables and the directory
// maps are allocated on first use, and FIFOs, the L1 filter and the
// histograms live inside their components. Each kind of component is
// allocated once for the whole machine (one slab of CPUs, one of
// stations, one of ring groups, one of ring slots) and reads the
// machine's one sim.Params, so New pays ~88 KB in ~33 objects (the flat
// arrays were 102 MB; a heap object per component and a private copy of
// the parameters in each were 127 KB in ~470 objects; a heap object per
// ring and IRI and a member list per ring were ~55 objects). Both bounds
// are about 1.5x the measured cost.
func TestNewFootprint(t *testing.T) {
	const budget, maxObjects = 132 << 10, 50
	got, objects := newCost(t, DefaultConfig())
	t.Logf("core.New(DefaultConfig()) allocated %.2f MB in %d objects", float64(got)/(1<<20), objects)
	if got > budget {
		t.Errorf("core.New(DefaultConfig()) allocated %d bytes, budget %d", got, budget)
	}
	if objects > maxObjects {
		t.Errorf("core.New(DefaultConfig()) allocated %d objects, bound %d", objects, maxObjects)
	}
}

// TestNewObjectsPerGeometry: the object count of New does not grow with
// the processors per station, the stations per ring or the rings, because
// CPUs, stations, ring groups and ring slots come from one slab each. Each
// geometry costs the objects of the smaller one of its row, give or take
// the few the runtime makes while sizing them (a heap object per component
// was 68 more at 4x4x1; a heap object per ring and IRI, 10 more at 1x2x4
// than at 1x2x2).
func TestNewObjectsPerGeometry(t *testing.T) {
	const slack = 4
	cost := func(g topo.Geometry) uint64 {
		cfg := DefaultConfig()
		cfg.Geom = g
		_, objects := newCost(t, cfg)
		t.Logf("%dx%dx%d: %d objects", g.ProcsPerStation, g.StationsPerRing, g.Rings, objects)
		return objects
	}
	small := topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}
	twoRings := topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 2}
	for _, row := range []struct{ base, g topo.Geometry }{
		{small, topo.Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 1}},
		{small, topo.Geometry{ProcsPerStation: 1, StationsPerRing: 4, Rings: 1}},
		{small, topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 1}},
		{twoRings, topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 4}},
	} {
		base, g := cost(row.base), row.g
		if n := cost(g); n > base+slack {
			t.Errorf("%dx%dx%d: %d objects, want at most %d (%dx%dx%d's %d + %d)",
				g.ProcsPerStation, g.StationsPerRing, g.Rings, n, base+slack,
				row.base.ProcsPerStation, row.base.StationsPerRing, row.base.Rings, base, slack)
		}
	}
}

// newCost returns the bytes and heap objects one New(cfg) allocates,
// averaged over a few builds on one P (as testing.AllocsPerRun counts).
func newCost(t *testing.T, cfg Config) (bytes, objects uint64) {
	t.Helper()
	const runs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestHistogramTitles: the coherence histograms live inside their modules
// and format their titles only when printed; the station still names them.
func TestHistogramTitles(t *testing.T) {
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ got, want string }{
		{m.Mems[3].Hist.String(), "memory[3] coherence histogram"},
		{m.NCs[2].Hist.String(), "netcache[2] coherence histogram"},
	} {
		if title, _, _ := strings.Cut(c.got, "\n"); title != c.want {
			t.Errorf("histogram title %q, want %q", title, c.want)
		}
	}
}

// BenchmarkNew times and counts the construction of a paper-size machine,
// with the paper's caches and with small ones: the fixed cost every Table
// 1 probe, fuzz draw and model-checker path pays before its first cycle.
func BenchmarkNew(b *testing.B) {
	small := DefaultConfig()
	small.Params.L2Lines, small.Params.NCLines = 128, 256
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"paper", DefaultConfig()}, {"small", small}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
