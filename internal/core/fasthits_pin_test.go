package core_test

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/workloads"
)

// TestMachineQuietBoundResolvesHits pins what the machine-quiet horizon
// buys, as a deterministic count: on lu-contig 4/256 at paper caches, of
// the hit references whose outcome the window decided, at least 93 % are
// resolved without a handshake (0.960 measured; 0.859 with only the bus
// floor). Losing or gating off the bound fails here instead of showing up
// as a slow sweep.
func TestMachineQuietBoundResolvesHits(t *testing.T) {
	m, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workloads.Build("lu-contig", m, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(inst.Progs)
	m.Run()
	var resolved, window int64
	for _, c := range m.CPUs {
		r, w := c.FastHitStats()
		resolved += r
		window += w
	}
	share := float64(resolved) / float64(resolved+window)
	if share < 0.93 {
		t.Errorf("fast-resolved share = %.3f (%d resolved, %d past the window), want >= 0.93", share, resolved, window)
	}
	t.Logf("fast-resolved share %.4f (%d resolved, %d past the window)", share, resolved, window)
}
