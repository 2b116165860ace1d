package msg

// PacketPool is a deterministic free list for ring packets. Packets churn
// fast — every bus message bound for the network is split into packets at
// the sending ring interface, copied at every consuming station and at
// each inter-ring descent, and discarded after reassembly — so they
// dominate the simulator's steady-state allocation rate. The pool recycles
// them without any effect on simulated behaviour: a recycled packet is
// fully overwritten at reuse and zeroed at release, packet pointers are
// never compared or used as map keys (reassembly is keyed by the *Message*
// identity, which is not pooled), and the free list is plain LIFO with no
// time- or scheduling-dependent state, so runs remain bit-identical.
//
// Concurrency: a pool is single-owner, like the component that embeds it.
// The StationRI pool is touched from its own station's phase-1 worker
// (BusDeliver) and from the serial interconnect phase (HandleSlot/Tick),
// which never overlap; IRI pools are touched in the interconnect phase
// only. Packets may die at a different interface than the one that
// allocated them — cross-pool migration is harmless because every pool
// recycles the same struct type.
type PacketPool struct {
	free []*Packet
	news int64 // fresh heap allocations (pool misses)
	hits int64 // recycled packets
}

// poolDebug, when true, makes every Put scan the free list and panic on a
// pointer that is already there — a double free would otherwise surface
// later as two live owners of one recycled struct, far from the bug. The
// scan is O(free) per Put, so it is enabled only by tests (including the
// -race equivalence soaks) via SetPoolDebug.
var poolDebug bool

// SetPoolDebug toggles double-free detection on every pool Put; returns
// the previous setting so tests can restore it.
func SetPoolDebug(on bool) bool {
	prev := poolDebug
	poolDebug = on
	return prev
}

// PoolDebug reports whether double-free detection is armed. The directory
// transaction pools in internal/memory and internal/netcache honor the
// same switch so one soak guards every free list in the machine.
func PoolDebug() bool { return poolDebug }

// Get returns a zeroed packet, recycling a freed one when available.
func (p *PacketPool) Get() *Packet {
	if n := len(p.free) - 1; n >= 0 {
		pkt := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.hits++
		return pkt
	}
	p.news++
	return new(Packet)
}

// Put releases a dead packet to the free list. The struct is zeroed
// immediately so no Message is kept reachable through the pool and any
// use-after-free reads a visibly blank packet instead of stale routing
// state.
func (p *PacketPool) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	if poolDebug {
		for _, q := range p.free {
			if q == pkt {
				panic("msg: packet double free")
			}
		}
	}
	*pkt = Packet{}
	p.free = append(p.free, pkt)
}

// Stats reports fresh allocations and recycled reuses (diagnostics).
func (p *PacketPool) Stats() (news, hits int64) { return p.news, p.hits }

// RebalancePackets levels the free lists across pools: every pool below
// the mean free count is topped up from pools above it. Packets routinely
// die at a different interface than the one that allocated them, so under
// asymmetric traffic free packets pile up at the busy destinations while
// the busy sources allocate fresh ones forever; periodic leveling at a
// serial point turns that steady drift into a one-time warm-up cost.
// Moving free entries between pools is invisible to the simulation —
// recycled structs are zeroed and fully overwritten, and pointers are
// never compared — so leveling cannot perturb bit-identical runs.
func RebalancePackets(pools []*PacketPool) {
	if len(pools) < 2 {
		return
	}
	total := 0
	for _, p := range pools {
		total += len(p.free)
	}
	target := total / len(pools)
	d := 0 // donor scan index; donors (above target) and receivers (below) are disjoint
	for _, p := range pools {
		for len(p.free) < target {
			for d < len(pools) && len(pools[d].free) <= target {
				d++
			}
			if d == len(pools) {
				return
			}
			q := pools[d]
			n := len(q.free) - 1
			p.free = append(p.free, q.free[n])
			q.free[n] = nil
			q.free = q.free[:n]
		}
	}
}

// MessagePool is the Message counterpart of PacketPool. Messages are the
// other steady-state allocation: every bus transaction, coherence action
// and network response constructs one, and almost all of them die at a
// well-defined point — consumed by a memory module or network cache after
// handling, delivered to a processor, or superseded by the private copy a
// ring interface hands to its bus. The pool recycles those. Messages whose
// lifetime is genuinely shared (multicast originals whose packets alias
// one Message across stations, duplicate-faulted packet chains) are simply
// never Put and die to the garbage collector as before.
//
// Determinism: like PacketPool, recycling cannot perturb simulated
// behaviour — a recycled Message is fully overwritten at reuse, zeroed at
// release, and the free list is plain LIFO. Message *identity* is used as
// a reassembly map key while packets are in flight, but every Put site
// runs strictly after the message has left the in-flight maps (or never
// entered them).
//
// All methods tolerate a nil receiver (Get falls back to the heap, Put
// drops the message) so components constructed directly in tests work
// without wiring a pool.
type MessagePool struct {
	free []*Message
	news int64
	hits int64
}

// Get returns a zeroed message, recycling a freed one when available.
func (p *MessagePool) Get() *Message {
	if p == nil {
		return new(Message)
	}
	if n := len(p.free) - 1; n >= 0 {
		m := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.hits++
		return m
	}
	p.news++
	return new(Message)
}

// Put releases a dead message to the free list, zeroing it immediately so
// any use-after-free reads a visibly blank message.
func (p *MessagePool) Put(m *Message) {
	if p == nil || m == nil {
		return
	}
	if poolDebug {
		for _, q := range p.free {
			if q == m {
				panic("msg: message double free")
			}
		}
	}
	*m = Message{}
	p.free = append(p.free, m)
}

// Stats reports fresh allocations and recycled reuses (diagnostics).
func (p *MessagePool) Stats() (news, hits int64) {
	if p == nil {
		return 0, 0
	}
	return p.news, p.hits
}

// RebalanceMessages is the MessagePool counterpart of RebalancePackets:
// messages allocated by a source station are recycled into the consuming
// station's pool, so asymmetric sharing (e.g. all hot lines homed on one
// station) drains the requesters' free lists while the home station's pool
// grows without bound. Leveling at a serial point keeps every station's
// Get hitting its free list.
func RebalanceMessages(pools []*MessagePool) {
	if len(pools) < 2 {
		return
	}
	total := 0
	for _, p := range pools {
		total += len(p.free)
	}
	target := total / len(pools)
	d := 0
	for _, p := range pools {
		for len(p.free) < target {
			for d < len(pools) && len(pools[d].free) <= target {
				d++
			}
			if d == len(pools) {
				return
			}
			q := pools[d]
			n := len(q.free) - 1
			p.free = append(p.free, q.free[n])
			q.free[n] = nil
			q.free = q.free[:n]
		}
	}
}
