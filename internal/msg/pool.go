package msg

import "fmt"

// Pool is the deterministic free list behind every recycled record in the
// machine: bus/network messages and the directory transaction records of
// internal/memory and internal/netcache. Ring packets are values in slots
// and FIFOs and need no pool.
//
// The one rule: a record dies into the pool that built it. Every station
// owns one message pool, shared by its processors, bus, memory module,
// network cache and ring interface. A message on a station bus was built
// on that station — the ring interface hands its bus a private copy of
// every arriving message — so it dies there, in the same pool. A message
// sent into the ring network was built by its SrcStation and is aliased by
// its packets; the packet death that drops its reference count to zero
// (Message.Release) owns it and puts it into the pool of its SrcStation,
// whether that death is the last reassembly at a receiving interface, a
// drop at injection, or a fault drop in an inter-ring interface. Multicast
// originals and duplicate-fault chains recycle the same way. So no free
// list grows at one station while another allocates: under any traffic,
// skewed or not, each pool settles at its own station's working set.
//
// Determinism: recycling cannot perturb simulated behaviour. A recycled
// record is zeroed at release and fully overwritten at reuse, the free
// list is plain LIFO with no time- or scheduling-dependent state, and
// pooled pointers are never compared or used as map keys while free
// (Message identity keys reassembly while packets are in flight, but every
// Put site runs strictly after the message has left it, or never entered
// it).
//
// Concurrency: a pool is single-owner, like the component or station that
// holds it. A station's components touch its message pool from that
// station's phase-1 worker; ring interfaces and inter-ring interfaces put
// ring originals into any station's pool, but only in the serial
// interconnect phase, which the shard pool's barrier separates from every
// phase-1 worker.
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
// use-after-free reads a visibly blank record instead of stale state. A
// nil record is a no-op.
func (p *Pool[T]) Put(v *T) {
	if v == nil {
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
	return p.news, p.hits
}
