package core

import (
	"runtime"
	"testing"
)

// TestNewFootprint is the construction-cost gate: a paper-size machine
// (64 CPUs x 1 MB L2, 16 stations x 4 MB NC) must cost what its
// components cost, not what its caches could one day hold. The tag stores
// are paged and read one shared zero page table until their first insert,
// the coherence histograms and a CPU's monitoring tables are allocated on
// first use, FIFOs live inside their components and the CPUs share their
// hooks, so New pays component headers only (~127 KB in ~470 objects; the
// flat arrays were 102 MB, and private page tables, eager histograms,
// heap FIFOs and per-CPU hooks another 125 KB in 725 objects). Both bounds
// are about 1.5x the measured cost.
func TestNewFootprint(t *testing.T) {
	const budget, maxObjects = 192 << 10, 700
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("core.New(DefaultConfig()) allocated %.2f MB in %d objects", float64(got)/(1<<20), objects)
	if got > budget {
		t.Errorf("core.New(DefaultConfig()) allocated %d bytes, budget %d", got, budget)
	}
	if objects > maxObjects {
		t.Errorf("core.New(DefaultConfig()) allocated %d objects, bound %d", objects, maxObjects)
	}
	runtime.KeepAlive(m)
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
