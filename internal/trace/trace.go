// Package trace is the structured event tracing subsystem: every timed
// component of the machine (CPUs, station buses, memory directories,
// network caches, ring interfaces, rings, inter-ring interfaces) owns a
// Sink — a fixed-capacity ring buffer of typed events — and a Tracer
// merges the per-component streams into one deterministic sequence for
// the exporters (text serializer, Chrome/Perfetto JSON).
//
// Two properties are load-bearing and enforced by the test suite:
//
// Zero overhead when disabled. Components hold a *Sink that is nil until
// core.Machine.EnableTrace wires one in; Emit on a nil Sink is a single
// branch with no allocation, so the instrumented hot paths cost nothing
// in normal runs (the cycle-loop benchmarks verify 0 allocs/op).
//
// Determinism across cycle loops. Events are emitted only on real work —
// state transitions, bus grants, queue pushes/pops, ring slot activity —
// never from the per-cycle idle ticks the quiescence scheduler skips, so
// each sink records the identical sequence under the test-only reference
// order and both executors. Under the pooled executor every sink is written
// by exactly one station's phase-1 worker or by the serial phase-2 code,
// never both in the same phase. The merge orders events by
// (cycle, component rank, intra-sink sequence), where ranks follow the
// machine's fixed tick order; all three keys are loop-invariant, so the
// merged trace is byte-identical whichever loop produced it.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"numachine/internal/msg"
)

// Kind is the event type. The taxonomy follows the component layers:
// processor transactions, bus transfers, directory transactions, flit
// movement through the network, ring dynamics, and queue depth.
type Kind uint8

const (
	// KindTxnBegin: a processor issued a memory-system transaction.
	// A = message type, B = phase<<1 | retry-bit.
	KindTxnBegin Kind = iota + 1
	// KindTxnEnd: the processor's outstanding transaction completed.
	// A = reference kind, B = phase.
	KindTxnEnd
	// KindNAK: the processor was NAKed and will retry. A = NAK'd type,
	// B = retry delay in cycles.
	KindNAK
	// KindWriteBack: a dirty victim left a secondary cache (Line is the
	// victim's address).
	KindWriteBack
	// KindInval: a processor invalidated its copy of Line.
	KindInval
	// KindInterv: a processor answered an intervention. A = 1 when the
	// dirty copy was supplied (0: miss), B = 1 for exclusive.
	KindInterv
	// KindBarrierArrive / KindBarrierRelease bracket a processor's stay at
	// a hardware barrier.
	KindBarrierArrive
	KindBarrierRelease
	// KindPhase: the processor wrote its phase-identifier register
	// (§3.3.4). A = new phase.
	KindPhase
	// KindBusGrant: the bus arbiter granted a transfer. A = message type,
	// B = occupancy in cycles.
	KindBusGrant
	// KindBusDeliver: the transfer completed and was delivered.
	// A = message type, B = destination module index.
	KindBusDeliver
	// KindMemTxn: the home memory directory processed a transaction.
	// A = message type, B = directory state (bits 0-1) | lock bit (bit 2).
	KindMemTxn
	// KindNCTxn: a network cache processed a transaction. A = message
	// type, B = -1 for NotIn, else state (bits 0-1) | lock bit (bit 2).
	KindNCTxn
	// KindQueueDepth: a module input queue changed depth. A = new depth.
	KindQueueDepth
	// KindFlitEnqueue: a ring interface packetized a network message.
	// A = message type, B = packet count.
	KindFlitEnqueue
	// KindFlitInject: a packet entered a free ring slot. A = message
	// type, B = packet sequence number.
	KindFlitInject
	// KindFlitArrive: a packet was consumed into a station input FIFO.
	// A = message type, B = packet sequence number.
	KindFlitArrive
	// KindFlitDeliver: a reassembled message was handed to the station
	// bus. A = message type, B = arrival-to-handoff delay in cycles.
	KindFlitDeliver
	// KindFlitSwitch: an inter-ring interface switched a packet between
	// levels. A = 0 ascending / 1 descending, B = message type.
	KindFlitSwitch
	// KindRingOccupancy: occupied slot count after a ring-clock edge
	// (emitted only when non-zero). A = occupied slots.
	KindRingOccupancy
	// KindRingStall: a ring-clock edge lost to flow control. A = occupied
	// slots at the halt.
	KindRingStall
	// KindFaultDrop: the fault injector lost a request packet. A = message
	// type, B = 0 at a ring-interface injection point, 1 ascending and 2
	// descending through an inter-ring interface.
	KindFaultDrop
	// KindFaultDup: the fault injector duplicated a sinkable network
	// message at packetization. A = message type, B = packet count per copy.
	KindFaultDup
	// KindFaultStall: a ring-clock edge lost to an injected degrade
	// window. A = occupied slots at the halt.
	KindFaultStall

	kindCount
)

var kindNames = [...]string{
	KindTxnBegin: "TxnBegin", KindTxnEnd: "TxnEnd", KindNAK: "NAK",
	KindWriteBack: "WriteBack", KindInval: "Inval", KindInterv: "Interv",
	KindBarrierArrive: "BarrierArrive", KindBarrierRelease: "BarrierRelease",
	KindPhase: "Phase", KindBusGrant: "BusGrant", KindBusDeliver: "BusDeliver",
	KindMemTxn: "MemTxn", KindNCTxn: "NCTxn", KindQueueDepth: "QueueDepth",
	KindFlitEnqueue: "FlitEnqueue", KindFlitInject: "FlitInject",
	KindFlitArrive: "FlitArrive", KindFlitDeliver: "FlitDeliver",
	KindFlitSwitch: "FlitSwitch", KindRingOccupancy: "RingOccupancy",
	KindRingStall: "RingStall", KindFaultDrop: "FaultDrop",
	KindFaultDup: "FaultDup", KindFaultStall: "FaultStall",
}

// String returns the event-kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Class categorizes a component for track grouping in the exporters.
type Class uint8

const (
	ClassCPU Class = iota
	ClassBus
	ClassMem
	ClassNC
	ClassRI
	ClassRing
	ClassIRI
)

// String returns the class mnemonic.
func (c Class) String() string {
	return [...]string{"cpu", "bus", "mem", "nc", "ri", "ring", "iri"}[c]
}

// Event is one trace record. A and B carry kind-specific small operands
// (documented on each Kind); the struct is a value type so ring buffers
// never allocate.
type Event struct {
	Cycle int64
	Line  uint64 // cache-line address, 0 when not line-related
	Txn   uint64 // directory transaction id, 0 before one is assigned
	Comp  int32  // component rank assigned by Tracer.Register
	Kind  Kind
	A, B  int32
}

// Sink is one component's ring buffer. The zero capacity Sink and the nil
// Sink both drop everything; components keep a nil *Sink until tracing is
// enabled, which makes the disabled Emit a single branch.
type Sink struct {
	comp int32
	buf  []Event
	n    int64 // total events ever emitted; n mod cap is the write slot
}

// Emit appends one event, overwriting the oldest when the buffer is full.
// Safe (and free) on a nil receiver; a zero-capacity sink drops the event.
func (s *Sink) Emit(cycle int64, k Kind, line, txn uint64, a, b int32) {
	if s == nil || len(s.buf) == 0 {
		return
	}
	s.buf[s.n%int64(len(s.buf))] = Event{
		Cycle: cycle, Line: line, Txn: txn, Comp: s.comp, Kind: k, A: a, B: b,
	}
	s.n++
}

// Len returns the number of retained events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	if s.n < int64(len(s.buf)) {
		return int(s.n)
	}
	return len(s.buf)
}

// Dropped returns how many events were overwritten.
func (s *Sink) Dropped() int64 {
	if s == nil || s.n <= int64(len(s.buf)) {
		return 0
	}
	return s.n - int64(len(s.buf))
}

// Events returns the retained events in emission order.
func (s *Sink) Events() []Event {
	if s == nil || s.n == 0 {
		return nil
	}
	if s.n <= int64(len(s.buf)) {
		return append([]Event(nil), s.buf[:s.n]...)
	}
	head := int(s.n % int64(len(s.buf)))
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[head:]...)
	return append(out, s.buf[:head]...)
}

// CompMeta describes one registered component.
type CompMeta struct {
	Name    string
	Station int // owning station; the interconnect uses Stations()
	Class   Class
}

// DefaultSinkEvents is the per-component ring-buffer capacity used when
// the caller passes a non-positive size.
const DefaultSinkEvents = 1 << 16

// Tracer owns the per-component sinks. Components must be registered in
// the machine's fixed tick order: the registration index is the
// component rank the deterministic merge sorts by.
type Tracer struct {
	// CyclesToNS converts cycles to nanoseconds for the exporters; when
	// nil, timestamps are raw cycles.
	CyclesToNS func(int64) float64

	perSink int
	sinks   []*Sink
	metas   []CompMeta
}

// NewTracer creates a tracer whose sinks retain perSinkEvents events each
// (DefaultSinkEvents when <= 0).
func NewTracer(perSinkEvents int) *Tracer {
	if perSinkEvents <= 0 {
		perSinkEvents = DefaultSinkEvents
	}
	return &Tracer{perSink: perSinkEvents}
}

// Register creates the sink for one component. Call in tick order.
func (t *Tracer) Register(name string, station int, class Class) *Sink {
	s := &Sink{comp: int32(len(t.sinks)), buf: make([]Event, t.perSink)}
	t.sinks = append(t.sinks, s)
	t.metas = append(t.metas, CompMeta{Name: name, Station: station, Class: class})
	return s
}

// Components returns the registered component metadata, indexed by rank.
func (t *Tracer) Components() []CompMeta { return t.metas }

// Comp returns the metadata of one component rank.
func (t *Tracer) Comp(rank int32) CompMeta { return t.metas[rank] }

// Dropped sums the overwritten events across all sinks.
func (t *Tracer) Dropped() int64 {
	var n int64
	for _, s := range t.sinks {
		n += s.Dropped()
	}
	return n
}

// Events merges every sink into one sequence ordered by (cycle, component
// rank, intra-sink emission order). Each sink's events are appended in
// emission order and the sort is stable, so equal (cycle, rank) keys —
// necessarily from the same sink — keep their emission order: the result
// is the canonical trace, identical across cycle loops.
func (t *Tracer) Events() []Event {
	total := 0
	for _, s := range t.sinks {
		total += s.Len()
	}
	out := make([]Event, 0, total)
	for _, s := range t.sinks {
		out = append(out, s.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Comp < out[j].Comp
	})
	return out
}

// WriteText serializes the merged trace, one line per event, in the
// canonical order. The format is stable and byte-deterministic; the loop
// equivalence suite compares these bytes across cycle loops.
func (t *Tracer) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		m := t.metas[e.Comp]
		if _, err := fmt.Fprintf(bw, "%d %s %s line=%#x txn=%d a=%d b=%d\n",
			e.Cycle, m.Name, e.Kind, e.Line, e.Txn, e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TypeName renders an A/B operand holding a msg.Type.
func TypeName(v int32) string { return msg.Type(v).String() }
