package msg

import "fmt"

// Pool is the deterministic free list behind every recycled record in the
// machine: ring packets, bus/network messages and the directory
// transaction records of internal/memory and internal/netcache.
//
// Packets churn fastest — every bus message bound for the network is split
// into packets at the sending ring interface, copied at every consuming
// station and at each inter-ring descent, and discarded after reassembly.
// Messages are the other steady-state allocation: every bus transaction,
// coherence action and network response constructs one, and almost all of
// them die at a well-defined point — consumed by a memory module or
// network cache after handling, delivered to a processor, or superseded by
// the private copy a ring interface hands to its bus. Messages whose
// lifetime is genuinely shared (multicast originals whose packets alias
// one Message across stations, duplicate-faulted packet chains) are simply
// never Put and die to the garbage collector.
//
// Determinism: recycling cannot perturb simulated behaviour. A recycled
// record is zeroed at release and fully overwritten at reuse, the free
// list is plain LIFO with no time- or scheduling-dependent state, and
// pooled pointers are never compared or used as map keys while free
// (Message identity keys the reassembly maps while packets are in flight,
// but every Put site runs strictly after the message has left them, or
// never entered them).
//
// Concurrency: a pool is single-owner, like the component that holds it.
// A StationRI's packet pool is touched from its own station's phase-1
// worker (BusDeliver) and from the serial interconnect phase
// (HandleSlot/Tick), which never overlap; IRI pools are touched in the
// interconnect phase only. Records may die at a different component than
// the one that allocated them — cross-pool migration is harmless because
// every pool of one type recycles the same struct.
//
// All methods tolerate a nil receiver (Get falls back to the heap, Put
// drops the record) so components constructed directly in tests work
// without wiring a pool.
type Pool[T any] struct {
	free []*T
	news int64 // fresh heap allocations (pool misses)
	hits int64 // recycled records
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

// Get returns a zeroed record, recycling a freed one when available.
func (p *Pool[T]) Get() *T {
	if p == nil {
		return new(T)
	}
	if n := len(p.free) - 1; n >= 0 {
		v := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		p.hits++
		return v
	}
	p.news++
	return new(T)
}

// Put releases a dead record to the free list. The struct is zeroed
// immediately so nothing is kept reachable through the pool and any
// use-after-free reads a visibly blank record instead of stale state.
func (p *Pool[T]) Put(v *T) {
	if p == nil || v == nil {
		return
	}
	if poolDebug {
		for _, q := range p.free {
			if q == v {
				panic(fmt.Sprintf("msg: %T double free", v))
			}
		}
	}
	var zero T
	*v = zero
	p.free = append(p.free, v)
}

// Stats reports fresh allocations and recycled reuses (diagnostics).
func (p *Pool[T]) Stats() (news, hits int64) {
	if p == nil {
		return 0, 0
	}
	return p.news, p.hits
}

// Rebalance levels the free lists across pools: every pool below the mean
// free count is topped up from pools above it. Records routinely die at a
// different component than the one that allocated them — packets at the
// consuming interface, messages in the consuming station's pool — so under
// asymmetric traffic (all hot lines homed on one station, say) free
// records pile up at the busy destinations while the busy sources allocate
// fresh ones forever; periodic leveling at a serial point turns that
// steady drift into a one-time warm-up cost. Moving free entries between
// pools is invisible to the simulation — recycled structs are zeroed and
// fully overwritten, and pointers are never compared — so leveling cannot
// perturb bit-identical runs.
func Rebalance[T any](pools []*Pool[T]) {
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
