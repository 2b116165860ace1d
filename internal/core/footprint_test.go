package core

import (
	"runtime"
	"testing"
)

// TestNewFootprint is the construction-cost gate: a paper-size machine
// (64 CPUs x 1 MB L2, 16 stations x 4 MB NC) must cost what its
// components cost, not what its caches could one day hold. The tag stores
// are paged and allocated on first insert, and a CPU's monitoring tables
// on first use, so New pays page tables and queues only (~0.3 MB in all;
// the flat arrays were 102 MB, the per-CPU tables another 0.4 MB).
func TestNewFootprint(t *testing.T) {
	const budget = 512 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(DefaultConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("core.New(DefaultConfig()) allocated %.2f MB in %d objects",
		float64(got)/(1<<20), after.Mallocs-before.Mallocs)
	if got > budget {
		t.Errorf("core.New(DefaultConfig()) allocated %d bytes, budget %d", got, budget)
	}
	runtime.KeepAlive(m)
}
