// Package msg defines the transactions exchanged between NUMAchine
// components: bus-level messages within a station, and network-level
// messages carried as one or more ring packets between stations.
//
// Following §2.4 of the paper, every network message is classified as
// sinkable (always consumable at its target: responses, write-backs,
// invalidations, interrupts) or nonsinkable (elicits a response: all kinds
// of read/ownership requests and interventions). Ring interfaces queue the
// two classes separately and give sinkable messages priority, which—together
// with a bound on outstanding nonsinkable messages—prevents deadlock.
package msg

import (
	"fmt"

	"numachine/internal/topo"
)

// Type enumerates every transaction the machine exchanges.
type Type uint8

const (
	// Invalid is the zero Type; it never appears on a bus or ring.
	Invalid Type = iota

	// --- Station-bus requests: processor (L2) -> memory or network cache.
	LocalRead   // shared read of a line
	LocalReadEx // exclusive read (write miss)
	LocalUpgd   // upgrade a shared copy to exclusive (no data needed)
	LocalWrBack // write back a dirty line (eviction)

	// --- Station-bus responses: memory/NC -> processor.
	ProcData    // shared fill
	ProcDataEx  // exclusive fill (write permission + data)
	ProcUpgdAck // write permission without data
	ProcNAK     // line locked: retry later

	// --- Station-bus coherence actions: memory/NC -> processors.
	BusInval        // invalidate copies in the processors named by BusProcs
	BusIntervention // owner must supply its dirty copy

	// --- Station-bus intervention results: processor -> memory/NC.
	IntervResp // dirty data (also observed by the requesting processor)
	IntervMiss // the processor no longer holds the line

	// --- Network requests (nonsinkable): NC -> home memory.
	RemRead      // station wants a shared copy
	RemReadEx    // station wants an exclusive copy
	RemUpgd      // station has a shared copy, wants ownership
	SpecialWrReq // optimistic upgrade misfired; data must be returned (§4.6)

	// --- Network interventions (nonsinkable): home memory -> owning NC.
	NetIntervShared // owner must supply data, retains a shared copy
	NetIntervEx     // owner must yield data and invalidate (ownership transfer)

	// --- Network responses (sinkable): home memory or owning NC -> NC/memory.
	NetData     // shared data response
	NetDataEx   // exclusive data response
	NetUpgdAck  // ownership granted, no data (optimistic upgrade)
	NetNAK      // line locked at home: retry
	NetWBCopy   // dirty data copy travelling to the home memory
	NetXferDone // owner confirms an ownership transfer to the home memory

	// --- Network write-back (sinkable): NC -> home memory.
	RemWrBack

	// FalseRemoteResp (sinkable) bounces a Rem* request back to a station
	// whose network cache lost its directory entry by ejection: the home
	// memory's filter mask shows the requesting station already owns the
	// line, so the NC must perform the intervention locally (§4.6, Table 3).
	FalseRemoteResp

	// NetIntervMiss (sinkable) tells the home memory that the targeted
	// station no longer holds the line; the in-flight write-back carries
	// the data.
	NetIntervMiss

	// --- Multicast coherence (sinkable), ordered by the sequencing point.
	Invalidate

	// PrefetchReq asks the network cache to pull a line from its remote
	// home without a waiting processor (§3.1.4: "the NC can also be used
	// for prefetching data if the processor does not support prefetching
	// directly"). Bus-level only; the NC turns it into a RemRead.
	PrefetchReq

	// --- Hardware-supported software features (sinkable).
	NetInterrupt // write into remote interrupt register(s)
	_            // retired: a remote barrier-register write nothing sent; KillReq keeps its byte value
	KillReq      // special function: purge copies of a line (memory-directed)
)

var typeNames = map[Type]string{
	LocalRead: "LocalRead", LocalReadEx: "LocalReadEx", LocalUpgd: "LocalUpgd",
	LocalWrBack: "LocalWrBack", ProcData: "ProcData", ProcDataEx: "ProcDataEx",
	ProcUpgdAck: "ProcUpgdAck", ProcNAK: "ProcNAK", BusInval: "BusInval",
	BusIntervention: "BusIntervention", IntervResp: "IntervResp", IntervMiss: "IntervMiss",
	RemRead: "RemRead", RemReadEx: "RemReadEx", RemUpgd: "RemUpgd",
	SpecialWrReq: "SpecialWrReq", NetIntervShared: "NetIntervShared",
	NetIntervEx: "NetIntervEx", NetData: "NetData", NetDataEx: "NetDataEx",
	NetUpgdAck: "NetUpgdAck", NetNAK: "NetNAK", NetWBCopy: "NetWBCopy",
	NetXferDone: "NetXferDone", RemWrBack: "RemWrBack", Invalidate: "Invalidate",
	FalseRemoteResp: "FalseRemoteResp", NetIntervMiss: "NetIntervMiss",
	PrefetchReq:  "PrefetchReq",
	NetInterrupt: "NetInterrupt", KillReq: "KillReq",
}

// String returns the mnemonic used in the paper's discussion.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Sinkable reports whether the message can always be consumed at its target
// without generating further network traffic (§2.4).
func (t Type) Sinkable() bool {
	switch t {
	case RemRead, RemReadEx, RemUpgd, SpecialWrReq, NetIntervShared, NetIntervEx, KillReq:
		return false
	}
	return true
}

// Droppable reports whether the fault injector may lose this message in
// the network. Only the NC-issued fetch requests qualify: they are
// single-packet, they leave a waiting transaction behind at the sender,
// and the network cache's re-issue timeout recovers them. The other
// nonsinkable types are excluded because losing them wedges the protocol
// with no sender-side recovery point: a lost RemUpgd/SpecialWrReq leaves
// the home directory lock pending an answer that names a specific txn,
// and a lost intervention (NetInterv*) or KillReq strands a locked home
// entry that only the targeted station could release.
func (t Type) Droppable() bool {
	return t == RemRead || t == RemReadEx
}

// DupSafe reports whether the fault injector may deliver this sinkable
// message twice. A type qualifies only when a second copy is provably
// harmless: receivers either detect it as stale (TxnID guards, cleared
// transactions) or apply it idempotently. Data-carrying responses that
// update authoritative state (NetDataEx, NetWBCopy, RemWrBack) are
// excluded — a late second copy can overwrite a line that was legally
// re-written between the two deliveries — as is NetInterrupt, whose
// replay could complete a later, unrelated special function early.
func (t Type) DupSafe() bool {
	switch t {
	case NetData, NetNAK, NetUpgdAck, NetXferDone, FalseRemoteResp,
		Invalidate, NetIntervMiss:
		return true
	}
	return false
}

// CarriesData reports whether the message includes a cache-line payload and
// therefore needs multiple ring packets.
func (t Type) CarriesData() bool {
	switch t {
	case ProcData, ProcDataEx, IntervResp, NetData, NetDataEx, NetWBCopy,
		RemWrBack, LocalWrBack:
		return true
	}
	return false
}

// Message is a single transaction. The same structure is used on station
// buses and (wrapped into packets) on the rings; unused fields are zero.
type Message struct {
	Type Type
	Line uint64 // line-aligned physical address
	Home int    // home station of Line

	// Station-bus routing: module indices local to a station
	// (0..P-1 processors, then memory, network cache, ring interface).
	SrcMod, DstMod int

	// BusProcs selects local processors for BusInval multicasts; bit i is
	// local processor i. A BusIntervention targets the single set bit.
	BusProcs uint16

	// AlsoProc: when >= 0, a bus data transfer (e.g. an intervention
	// response) is additionally observed by this local processor, mirroring
	// the single-bus-transaction forwarding described in §2.3.
	AlsoProc int

	// Network routing.
	SrcStation, DstStation int
	Mask                   topo.RoutingMask // multicast mask for Invalidate & friends

	// Requester identifies the processor whose reference started the
	// transaction chain (global id), and ReqStation its station, so that
	// interventions can forward data to the right place.
	Requester  int
	ReqStation int

	// Payload: the simulator carries one 64-bit value per line so that a
	// machine-checked coherence oracle can validate the protocol. Only the
	// types whose CarriesData holds carry it.
	Data uint64

	// TxnID ties responses, retries and invalidation returns to the pending
	// transaction that produced them.
	TxnID uint64

	// NakOf records, in a ProcNAK/NetNAK/FalseRemoteResp, the request type
	// that was refused or bounced.
	NakOf Type

	// Retry marks a processor request re-issued after a NAK; the NC
	// excludes retries from its hit/combining rates (§4.5).
	Retry bool

	// Ex marks a BusIntervention (or IntervResp) as an ownership transfer:
	// the previous holder invalidates its copy instead of keeping it shared.
	Ex bool

	// InvalFollows, on a NetDataEx/NetUpgdAck, tells the receiving network
	// cache that the home memory issued an invalidation multicast for this
	// write; under sequential-consistency locking the NC holds the data
	// until that invalidation arrives (§2.3, Figure 7).
	InvalFollows bool

	// refs counts the live packets aliasing this message while it is in the
	// ring network: the sending interface initializes it to the
	// packetization count, every per-station consume copy and inter-ring
	// descend copy adds one, and every packet death releases one. The site
	// that observes the count hit zero owns the message and returns it to
	// the pool of its SrcStation, the station that built it (see Pool). A
	// plain counter: InitRefs runs in the sending station's phase (on a
	// message no other station can see yet), everything after it in the
	// serial interconnect phase. The private copy a ring interface delivers
	// to its bus inherits a count that means nothing: InitRefs overwrites
	// it if the copy is ever packetized.
	refs int32
}

// InitRefs sets the packet reference count at packetization time.
func (m *Message) InitRefs(n int) { m.refs = int32(n) }

// AddRef records one more live packet aliasing the message (a consume or
// descend copy). Must be called while the caller still holds a live packet
// of the message, so the count cannot transiently reach zero.
func (m *Message) AddRef() { m.refs++ }

// Release records a packet death and reports whether it was the last one:
// a true return transfers message ownership to the caller, which may
// recycle or drop it. Releasing a count of zero — a message never
// packetized, or a double packet death — panics.
func (m *Message) Release() bool {
	m.refs--
	if m.refs < 0 {
		panic("msg: packet reference count underflow")
	}
	return m.refs == 0
}

// PacketsPerLine is the number of ring packets a cache-line payload takes,
// headers excluded.
const PacketsPerLine = 4

// Packets returns the number of ring packets the message occupies.
func (m *Message) Packets() int {
	if m.Type.CarriesData() {
		return 1 + PacketsPerLine
	}
	return 1
}

// String renders a compact diagnostic form.
func (m *Message) String() string {
	return fmt.Sprintf("%s line=%#x home=%d src=%d dst=%d req=%d txn=%d",
		m.Type, m.Line, m.Home, m.SrcStation, m.DstStation, m.Requester, m.TxnID)
}

// Packet is one ring slot's worth of a message: a value, copied from slot
// to FIFO to slot like the slot contents of §3.1.3, and an empty slot holds
// the zero Packet (Msg == nil). All packets of a message carry the same Msg
// pointer; Seq orders a message's packets, and the receiving ring interface
// reassembles interleaved transfers by counting them up to Msg.Packets.
// Each multicast copy is its own Packet value but shares Msg.
type Packet struct {
	Msg  *Message
	Seq  uint16           // 0-based packet index within the message
	Mask topo.RoutingMask // remaining destinations (mutated during routing)

	// Sequenced is set when the copy passes the sequencing point of the
	// highest ring level it visits; ring nodes refuse to deliver an
	// unsequenced invalidation (§2.3). Every other type starts sequenced.
	Sequenced bool

	// EnqueuedAt supports the ring-delay measurements of Figure 18.
	EnqueuedAt int64

	// ReadyAt models fixed packetization/switching latency: the packet may
	// not leave its queue before this cycle.
	ReadyAt int64
}
