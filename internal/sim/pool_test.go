package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines returns the goroutine count once it has held still
// for 10 ms (or after 2 s): a helper that Stop has released may still be
// counted for an instant after it signalled its exit.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		now := runtime.NumGoroutine()
		if now == n {
			break
		}
		n = now
	}
	return n
}

// TestShardPoolRunsEveryShard: every shard runs once per Cycle, on
// Workers()-1 helper goroutines plus the caller, which are started by the
// first Cycle and gone after Stop.
func TestShardPoolRunsEveryShard(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := settledGoroutines()
			var sums [8]int64
			p := NewShardPool(workers, 8, func(s int, now int64) int {
				sums[s] += now
				return s
			})
			if p.Workers() != workers {
				t.Fatalf("workers = %d, want %d", p.Workers(), workers)
			}
			if got := p.Cycle(10); got != 28 {
				t.Errorf("Cycle(10) = %d, want 28", got)
			}
			if n := settledGoroutines() - base; n != workers-1 {
				t.Errorf("first Cycle started %d goroutines, want %d", n, workers-1)
			}
			if got := p.Cycle(5); got != 28 {
				t.Errorf("Cycle(5) = %d, want 28", got)
			}
			p.Stop()
			if n := settledGoroutines() - base; n != 0 {
				t.Errorf("%d goroutines left after Stop", n)
			}
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
		})
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
// of Cycle — recoverable, unlike a panic on a helper goroutine — whether
// the shard is in a helper's block or in the caller's own, and only after
// the other blocks finished the cycle; the pool must keep working. A panic
// abandons the rest of its block, so with 4 workers over 8 shards shard 5
// (block [4, 6)) costs no other shard and shard 0 (block [0, 2)) costs
// shard 1.
func TestShardPoolPropagatesPanic(t *testing.T) {
	for _, bad := range []int{5, 0} {
		t.Run(fmt.Sprintf("shard=%d", bad), func(t *testing.T) {
			var ran [8]int
			p := NewShardPool(4, 8, func(s int, now int64) int {
				if s == bad && now == 1 {
					panic(fmt.Sprintf("shard %d broke", s))
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
			if want := fmt.Sprintf("shard %d broke", bad); got != want {
				t.Fatalf("Cycle(1) panicked with %v, want %q", got, want)
			}
			const perBlock = 8 / 4
			blockEnd := (bad/perBlock + 1) * perBlock
			for s, n := range ran {
				want := 1
				if s >= bad && s < blockEnd {
					want = 0
				}
				if n != want {
					t.Errorf("shard %d ran %d times in the panicking cycle, want %d", s, n, want)
				}
			}
			if got := p.Cycle(2); got != 8 {
				t.Errorf("Cycle(2) after the panic = %d, want 8", got)
			}
		})
	}
}
