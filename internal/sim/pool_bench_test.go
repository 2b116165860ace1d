package sim

import (
	"sync"
	"testing"
)

// legacyShardPool reproduces the pre-barrier hand-off (one buffered channel
// send per worker plus a WaitGroup Add/Wait round per Cycle) so the
// benchmark below can measure exactly what the sense-reversing barrier
// replaced. Kept in the test binary only.
type legacyShardPool struct {
	shards  int
	workers int
	run     func(shard int, now int64) int

	start   []chan int64
	wg      sync.WaitGroup
	counts  []int
	running bool
}

func newLegacyShardPool(workers, shards int, run func(shard int, now int64) int) *legacyShardPool {
	if workers > shards {
		workers = shards
	}
	return &legacyShardPool{shards: shards, workers: workers, run: run}
}

func (p *legacyShardPool) launch() {
	p.start = make([]chan int64, p.workers)
	p.counts = make([]int, p.workers)
	for w := 0; w < p.workers; w++ {
		ch := make(chan int64, 1)
		p.start[w] = ch
		lo := w * p.shards / p.workers
		hi := (w + 1) * p.shards / p.workers
		count := &p.counts[w]
		go func() {
			for now := range ch {
				n := 0
				for s := lo; s < hi; s++ {
					n += p.run(s, now)
				}
				*count = n
				p.wg.Done()
			}
		}()
	}
	p.running = true
}

func (p *legacyShardPool) Cycle(now int64) int {
	if !p.running {
		p.launch()
	}
	p.wg.Add(p.workers)
	for _, ch := range p.start {
		ch <- now
	}
	p.wg.Wait()
	total := 0
	for _, n := range p.counts {
		total += n
	}
	return total
}

func (p *legacyShardPool) Stop() {
	if !p.running {
		return
	}
	for _, ch := range p.start {
		close(ch)
	}
	p.start, p.counts, p.running = nil, nil, false
}

// The shard body is deliberately near-empty: the benchmark measures the
// per-Cycle hand-off cost (dispatch + barrier), which is what the parallel
// cycle loop pays once per simulated cycle with station work, on top of
// the real work.

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

func BenchmarkShardPoolHandoffLegacy(b *testing.B) {
	p := newLegacyShardPool(16, 16, func(shard int, now int64) int { return 1 })
	defer p.Stop()
	p.Cycle(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Cycle(int64(i)); got != 16 {
			b.Fatalf("cycle returned %d, want 16", got)
		}
	}
}
