package main

import (
	"io"
	"math"
	"testing"
)

// The six drills at a fiftieth of their length: each runs, repeats its
// cycle count exactly, and the two sanity orderings hold.
func TestDrillsShortened(t *testing.T) {
	out, err := runDrills(io.Discard, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range allDrills() {
		for _, m := range []string{"ns_per_ref", "cycles_per_ref"} {
			s, ok := out["drill."+d.Name+"."+m]
			if !ok || s.Value <= 0 || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				t.Errorf("drill.%s.%s = %+v", d.Name, m, s)
			}
		}
	}
	if s := out["sim.barrier_round_ns"]; s.Value <= 0 {
		t.Errorf("sim.barrier_round_ns = %+v", s)
	}
	if hit, miss := out["drill.hit.cycles_per_ref"].Value, out["drill.local_miss.cycles_per_ref"].Value; hit > 1.01 || miss < 10*hit {
		t.Errorf("a cached read costs %v cycles and a local miss %v; want about 1 and many more", hit, miss)
	}
}
