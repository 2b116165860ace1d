package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestNilSink verifies the zero-overhead-when-disabled contract: every
// Sink method must be a safe no-op on a nil receiver, since components
// keep nil sinks until tracing is enabled.
func TestNilSink(t *testing.T) {
	var s *Sink
	s.Emit(1, KindTxnBegin, 0x40, 0, 1, 2) // must not panic
	if s.Len() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatalf("nil sink not inert: len=%d dropped=%d events=%v",
			s.Len(), s.Dropped(), s.Events())
	}
}

// TestZeroCapacitySink checks the other inert sink: a zero Sink has no
// buffer, so Emit drops the event instead of indexing an empty ring.
func TestZeroCapacitySink(t *testing.T) {
	var s Sink
	s.Emit(1, KindTxnBegin, 0x40, 0, 1, 2) // must not panic
	if s.Len() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatalf("zero-capacity sink not inert: len=%d dropped=%d events=%v",
			s.Len(), s.Dropped(), s.Events())
	}
}

// TestNilSinkNoAlloc pins the hot-path cost of a disabled sink at zero
// allocations.
func TestNilSinkNoAlloc(t *testing.T) {
	var s *Sink
	allocs := testing.AllocsPerRun(100, func() {
		s.Emit(7, KindBusGrant, 0x80, 3, 4, 5)
	})
	if allocs != 0 {
		t.Fatalf("nil-sink Emit allocates %.1f/op, want 0", allocs)
	}
}

// TestSinkWrap exercises the ring buffer: overflow drops the oldest
// events and Events() reconstructs emission order across the wrap point.
func TestSinkWrap(t *testing.T) {
	tr := NewTracer(4)
	s := tr.Register("cpu[0]", 0, ClassCPU)
	for c := int64(1); c <= 6; c++ {
		s.Emit(c, KindTxnBegin, uint64(c)*64, 0, int32(c), 0)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Dropped() != 2 || tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d/%d, want 2/2", s.Dropped(), tr.Dropped())
	}
	got := s.Events()
	for i, e := range got {
		if want := int64(i + 3); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (wrap order broken)", i, e.Cycle, want)
		}
	}
}

// TestSinkNoWrap checks the partial-fill path returns only what was
// emitted, in order.
func TestSinkNoWrap(t *testing.T) {
	tr := NewTracer(8)
	s := tr.Register("mem[0]", 0, ClassMem)
	s.Emit(5, KindMemTxn, 0x100, 1, 2, 0)
	s.Emit(9, KindMemTxn, 0x140, 2, 3, 1)
	got := s.Events()
	want := []Event{
		{Cycle: 5, Line: 0x100, Txn: 1, Comp: 0, Kind: KindMemTxn, A: 2, B: 0},
		{Cycle: 9, Line: 0x140, Txn: 2, Comp: 0, Kind: KindMemTxn, A: 3, B: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Events = %+v, want %+v", got, want)
	}
}

// TestMergeOrder verifies the canonical merge: (cycle, component rank,
// intra-sink emission order), with rank breaking same-cycle ties and
// emission order preserved within a (cycle, rank) pair.
func TestMergeOrder(t *testing.T) {
	tr := NewTracer(16)
	cpu := tr.Register("cpu[0]", 0, ClassCPU)
	bus := tr.Register("bus[0]", 0, ClassBus)

	bus.Emit(10, KindBusGrant, 1, 0, 0, 0)  // later rank, earliest cycle
	cpu.Emit(10, KindTxnBegin, 2, 0, 0, 0)  // same cycle, lower rank: first
	cpu.Emit(10, KindWriteBack, 3, 0, 0, 0) // same (cycle, rank): emission order
	cpu.Emit(12, KindTxnEnd, 4, 0, 0, 0)
	bus.Emit(11, KindBusDeliver, 5, 0, 0, 0)

	var lines []uint64
	for _, e := range tr.Events() {
		lines = append(lines, e.Line)
	}
	want := []uint64{2, 3, 1, 5, 4}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("merge order %v, want %v", lines, want)
	}
}

// TestWriteTextDeterminism: repeated serialization of the same tracer
// must produce identical bytes — the loop equivalence suite depends on
// the text form being canonical.
func TestWriteTextDeterminism(t *testing.T) {
	tr := NewTracer(16)
	cpu := tr.Register("cpu[0]", 0, ClassCPU)
	mem := tr.Register("mem[0]", 0, ClassMem)
	cpu.Emit(3, KindTxnBegin, 0x1c0, 0, int32(1), 4)
	mem.Emit(3, KindMemTxn, 0x1c0, 7, int32(1), 2)
	cpu.Emit(8, KindTxnEnd, 0x1c0, 0, 0, 2)

	var a, b bytes.Buffer
	if err := tr.WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("WriteText not deterministic:\n%q\nvs\n%q", a.String(), b.String())
	}
	if a.String()[0] != '3' {
		t.Fatalf("first line should start at cycle 3: %q", a.String())
	}
}

// TestRegisterMetadata checks rank assignment and metadata retrieval.
func TestRegisterMetadata(t *testing.T) {
	tr := NewTracer(4)
	tr.Register("cpu[0]", 0, ClassCPU)
	s := tr.Register("ring 0", 4, ClassRing)
	if got := tr.Comp(1); got.Name != "ring 0" || got.Station != 4 || got.Class != ClassRing {
		t.Fatalf("Comp(1) = %+v", got)
	}
	s.Emit(1, KindRingOccupancy, 0, 0, 2, 0)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Comp != 1 {
		t.Fatalf("rank not stamped on events: %+v", evs)
	}
	if len(tr.Components()) != 2 {
		t.Fatalf("Components() = %d, want 2", len(tr.Components()))
	}
}
