package sim

import "testing"

func TestShardPoolRunsEveryShard(t *testing.T) {
	var sums [8]int64
	p := NewShardPool(3, 8, func(s int, now int64) int {
		sums[s] += now
		return s
	})
	if p.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", p.Workers())
	}
	if got := p.Cycle(10); got != 28 {
		t.Errorf("Cycle(10) = %d, want 28", got)
	}
	if got := p.Cycle(5); got != 28 {
		t.Errorf("Cycle(5) = %d, want 28", got)
	}
	p.Stop()
	// The pool relaunches after Stop.
	if got := p.Cycle(1); got != 28 {
		t.Errorf("Cycle(1) after Stop = %d, want 28", got)
	}
	p.Stop()
	p.Stop() // idempotent
	for s, v := range sums {
		if v != 16 {
			t.Errorf("shard %d saw cycle sum %d, want 16", s, v)
		}
	}
}

func TestShardPoolClampsWorkers(t *testing.T) {
	p := NewShardPool(64, 2, func(int, int64) int { return 1 })
	if p.Workers() != 2 {
		t.Fatalf("workers = %d, want clamp to 2 shards", p.Workers())
	}
	if got := p.Cycle(0); got != 2 {
		t.Errorf("Cycle = %d, want 2", got)
	}
	p.Stop()
}

// TestShardPoolPropagatesPanic: a shard panic must surface in the caller
// of Cycle — recoverable, unlike a panic on a worker goroutine — after
// the other workers finished the cycle, and the pool must keep working.
func TestShardPoolPropagatesPanic(t *testing.T) {
	var ran [8]int
	p := NewShardPool(4, 8, func(s int, now int64) int {
		if s == 5 && now == 1 {
			panic("shard 5 broke")
		}
		ran[s]++
		return 1
	})
	defer p.Stop()
	got := func() (v any) {
		defer func() { v = recover() }()
		p.Cycle(1)
		return nil
	}()
	if got != "shard 5 broke" {
		t.Fatalf("Cycle(1) panicked with %v, want the shard's value", got)
	}
	for s, n := range ran {
		if (s == 5) == (n == 1) {
			t.Errorf("shard %d ran %d times in the panicking cycle", s, n)
		}
	}
	if got := p.Cycle(2); got != 8 {
		t.Errorf("Cycle(2) after the panic = %d, want 8", got)
	}
}
