package sim

import "testing"

// TestQueueCompactionShift pins the head>64 shifted-copy branch: grow a
// long tail, pop past the threshold so head*2 > len triggers the in-place
// copy, then verify ordering and that freed slots hold zero values (no
// leaked references).
func TestQueueCompactionShift(t *testing.T) {
	q := new(Queue[int])
	const n = 200
	for i := 0; i < n; i++ {
		q.Push(i + 1) // non-zero payloads, so a zeroed slot is recognisable
	}
	// Pop 110 items. The shifted-copy branch fires at head=101 (head > 64
	// and head*2 > 200): 99 items move to the front, the tail is zeroed,
	// and the remaining 9 pops advance head again from 0 to 9.
	for i := 0; i < 110; i++ {
		v, ok := q.Pop()
		if !ok || v != i+1 {
			t.Fatalf("pop %d = (%d, %v)", i, v, ok)
		}
	}
	if q.head != 9 || len(q.items) != 99 {
		t.Fatalf("head=%d len=%d after compaction, want head=9 len=99", q.head, len(q.items))
	}
	if q.Len() != n-110 {
		t.Fatalf("Len() = %d after compaction, want %d", q.Len(), n-110)
	}
	// Slots beyond the compacted length were zeroed in the backing array so
	// pointer payloads do not leak.
	backing := q.items[:n]
	for i := len(q.items); i < n; i++ {
		if backing[i] != 0 {
			t.Fatalf("backing slot %d not zeroed: %d", i, backing[i])
		}
	}
	for i := 110; i < n; i++ {
		v, ok := q.Pop()
		if !ok || v != i+1 {
			t.Fatalf("post-compaction pop = (%d, %v), want %d", v, ok, i+1)
		}
	}
	if s := q.Stats(); s.Enqueued != n || s.MaxDepth != n {
		t.Errorf("stats = %+v, want enqueued and max depth %d", s, n)
	}
}

// TestQueueStatsAccounting pins the two event-driven counters the
// monitoring reports read: both move on a push and on nothing else.
func TestQueueStatsAccounting(t *testing.T) {
	q := new(Queue[int])
	if s := q.Stats(); s != (QueueStats{}) {
		t.Errorf("fresh queue stats non-zero: %+v", s)
	}
	q.Push(1)
	q.Push(2)
	q.Push(3)
	q.Pop()
	q.Pop()
	q.Push(4)
	if s := q.Stats(); s.Enqueued != 4 || s.MaxDepth != 3 {
		t.Errorf("stats = %+v, want enqueued 4, max depth 3", s)
	}
	q.Pop()
	q.Pop()
	if s := q.Stats(); s.Enqueued != 4 || s.MaxDepth != 3 {
		t.Errorf("stats moved on a pop: %+v", s)
	}
}
