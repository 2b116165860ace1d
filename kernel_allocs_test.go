package numachine_test

import (
	"runtime"
	"testing"

	"numachine/internal/core"
	"numachine/internal/workloads"
)

// TestKernelAllocsPerRef bounds heap allocations per completed reference
// of Machine.Run on real kernels (internal/core's TestAllocsPerRef pins
// the pooled hot paths on a synthetic sharing run). Allocation counts are
// deterministic up to runtime-internal noise, so the gate is hard: each
// budget is the value measured when the row was recorded, times 1.1, plus
// 0.02 — loose enough for that noise, tight enough to catch one lost
// recycling path. The first run of each kernel is a discarded warm-up.
func TestKernelAllocsPerRef(t *testing.T) {
	for _, k := range []struct {
		name        string
		procs, size int
		measured    float64
	}{
		{"radix", 4, 8192, 0.0280},
		{"lu-contig", 4, 96, 0.0172},
		{"fft", 4, 4096, 0.0567},
	} {
		var perRef float64
		for rep := 0; rep < 2; rep++ {
			m, err := core.New(benchConfig())
			if err != nil {
				t.Fatal(err)
			}
			inst, err := workloads.Build(k.name, m, k.procs, k.size)
			if err != nil {
				t.Fatal(err)
			}
			m.Load(inst.Progs)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m.Run()
			runtime.ReadMemStats(&after)
			r := m.Results()
			perRef = float64(after.Mallocs-before.Mallocs) / float64(r.Proc.Reads+r.Proc.Writes)
		}
		budget := k.measured*1.1 + 0.02
		if perRef > budget {
			t.Errorf("%s %d/%d: %.4f allocs per reference, budget %.4f (recorded %.4f)",
				k.name, k.procs, k.size, perRef, budget, k.measured)
		}
		t.Logf("%s %d/%d: %.4f allocs per reference", k.name, k.procs, k.size, perRef)
	}
}
