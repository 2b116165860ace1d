package sim

import "testing"

// The shard body is deliberately near-empty: the benchmark measures the
// per-Cycle hand-off cost (dispatch + barrier), which the pooled cycle
// loop pays once per round it dispatches, on top of the real work.

func BenchmarkShardPoolHandoff(b *testing.B) {
	p := NewShardPool(0, 16, func(shard int, now int64) int { return 1 })
	defer p.Stop()
	p.Cycle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Cycle(int64(i)); got != 16 {
			b.Fatalf("cycle returned %d, want 16", got)
		}
	}
}
