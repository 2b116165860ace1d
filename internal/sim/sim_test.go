package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := new(Queue[int])
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatal("unbounded push failed")
		}
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := &Queue[int]{Capacity: 2}
	if !q.Push(1) || !q.Push(2) {
		t.Fatal("pushes under capacity failed")
	}
	if q.Push(3) {
		t.Error("push beyond capacity succeeded")
	}
	if !q.Full() {
		t.Error("full queue not reported full")
	}
	q.Pop()
	if q.Full() {
		t.Error("queue still full after pop")
	}
}

func TestQueueStats(t *testing.T) {
	q := new(Queue[string])
	q.Push("a")
	q.Push("b")
	q.Pop()
	q.Pop()
	s := q.Stats()
	if s.Enqueued != 2 {
		t.Errorf("enqueued = %d", s.Enqueued)
	}
	if s.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", s.MaxDepth)
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := new(Queue[int])
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				q.Push(next)
				next++
			} else if v, ok := q.Pop(); ok {
				if v != expect {
					return false
				}
				expect++
			}
		}
		return q.Len() == next-expect
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The queue compacts its backing storage; ordering must survive that.
func TestQueueCompaction(t *testing.T) {
	q := new(Queue[int])
	n := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			q.Push(n + i)
		}
		for i := 0; i < 40; i++ {
			v, ok := q.Pop()
			if !ok || v != n+i {
				t.Fatalf("round %d: pop = (%d, %v), want %d", round, v, ok, n+i)
			}
		}
		n += 40
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds collide immediately")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d", v)
		}
	}
	counts := make([]int, 4)
	r = NewRNG(9)
	for i := 0; i < 40000; i++ {
		counts[r.Intn(4)]++
	}
	for b, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d has %d/40000 samples (poor uniformity)", b, c)
		}
	}
}

func TestParamsConversions(t *testing.T) {
	if ns := CyclesToNS(150); ns != 1000 {
		t.Errorf("150 cycles at 150 MHz = %v ns, want 1000", ns)
	}
}

// TestBackoffDelay: the fixed prototype delay with back-off off (no draw
// from the stream); with it on, doubling per NAK from RetryDelay, capped at
// RetryMaxDelay, plus a jitter in [0, delay/2] that is a pure function of
// the requester's stream; an installed Choice replaces the delay.
func TestBackoffDelay(t *testing.T) {
	p := DefaultParams()
	bo := NewBackoff(5)
	before := bo
	for _, streak := range []int{0, 3, 40} {
		if d := bo.Delay(&p, streak); d != int64(p.RetryDelay) {
			t.Errorf("fixed delay after %d NAKs = %d, want %d", streak, d, p.RetryDelay)
		}
	}
	if bo.rng != before.rng {
		t.Error("the fixed delay drew from the jitter stream")
	}
	p.RetryBackoff = true
	a, b := NewBackoff(5), NewBackoff(5)
	for streak := 0; streak < 40; streak++ {
		base := min(int64(p.RetryDelay)<<uint(min(streak, 16)), RetryMaxDelay)
		d := a.Delay(&p, streak)
		if d < base || d > base+base/2 {
			t.Errorf("streak %d: delay %d outside [%d, %d]", streak, d, base, base+base/2)
		}
		if d2 := b.Delay(&p, streak); d2 != d {
			t.Errorf("streak %d: same stream gave %d then %d", streak, d, d2)
		}
	}
	a.Choice = func(streak int, base int64) int64 { return base + int64(streak) }
	rng := a.rng
	if d := a.Delay(&p, 7); d != int64(p.RetryDelay)+7 {
		t.Errorf("Choice delay = %d, want RetryDelay+7 = %d", d, int64(p.RetryDelay)+7)
	}
	if a.rng != rng {
		t.Error("an installed Choice drew from the jitter stream")
	}
}
