// Package proc models a NUMAchine processor module (§3.1.1): an in-order
// CPU with a primary cache, an external secondary cache, an external agent
// issuing at most one outstanding miss (R4400-like), completion interrupts
// for the kill special function, and retry-on-NAK behaviour.
//
// Workloads drive processors through an execution-driven front end in the
// style of MINT: the workload is a real Go function running against a
// blocking memory interface (Ctx); each Read/Write hands a reference to
// the timing back end and suspends the workload until the simulated
// access completes. The workload runs as an iter.Pull coroutine of its
// CPU: the handshake is a direct switch between the goroutine ticking the
// CPU and the program's — no run queue, no wake-up, no migration to
// another thread — and it is strictly lock-step (exactly one side runs at
// any time), so simulations are deterministic.
package proc

import "iter"

// RefKind enumerates the operations a workload can issue.
type RefKind uint8

const (
	// RefRead is a shared load; the result is the line's 64-bit value.
	RefRead RefKind = iota
	// RefWrite stores a 64-bit value to a line (obtaining ownership).
	RefWrite
	// RefTAS is an atomic test-and-set: returns the old value, writes 1.
	RefTAS
	// RefFetchAdd atomically adds Data to the line, returning the old value.
	RefFetchAdd
	_ // was RefCompute (compute bursts coalesce into Ref.Pre); later kinds keep their byte values
	// RefBarrier blocks until all participating processors arrive.
	RefBarrier
	// RefPhase writes the per-processor phase identifier register (§3.3).
	RefPhase
	// RefKill issues the kill special function for a line (§3.1.2) and
	// waits for the completion interrupt.
	RefKill
	// RefPrefetch asks the network cache to pull a remote line in the
	// background (§3.1.4); it does not block the processor.
	RefPrefetch
	// RefCycle returns the current simulation cycle (for latency probes).
	RefCycle
	// RefDone marks the end of the workload.
	RefDone
)

// Ref is one workload reference handed to the timing back end.
type Ref struct {
	Kind  RefKind
	Addr  uint64
	Data  uint64
	Phase uint8

	// Pre is the number of compute cycles the processor must burn before
	// this reference executes. Consecutive Ctx.Compute calls coalesce into
	// the Pre of the next blocking reference, so a think-then-access pair
	// costs one handshake instead of two; the timing is identical
	// because a compute burst is pure elapsed processor time.
	Pre int64
}

// Program is the workload body executed by one simulated processor.
type Program func(c *Ctx)

// Ctx is the memory interface a workload runs against. All methods block
// (in simulated time) until the access completes.
type Ctx struct {
	// ID is the global processor id, NProcs the number of processors
	// running the program.
	ID     int
	NProcs int

	// yield parks the program and switches to the goroutine inside
	// Runner.Next; it returns false once the runner has been stopped. ref is
	// the reference the program is parked on, prev the result Next stored
	// for it. A handshake carries exactly one reference, so a parked program
	// has issued nothing its CPU has not been given.
	yield   func(struct{}) bool
	ref     Ref
	prev    uint64
	pending int64 // coalesced compute cycles awaiting the next reference

	// fast is the front-end hit fast path (see fasthits.go): when enabled,
	// Read/Write resolve cache hits synchronously in the workload coroutine
	// within the back-end-published window, banking the hit cycles into
	// pending like Compute does.
	fast fastHits
}

// stopped is the panic value that unwinds a program whose runner was
// stopped while it was parked; Runner.run recovers it.
type stopped struct{}

// do performs the handshake: it hands r, carrying the banked compute
// cycles, to the back end and parks until the back end has executed it,
// returning its result. After Runner.Stop yield returns false, here and on
// every later call, so a program cannot park again from a deferred
// function; the hit fast path is switched off so those calls reach do
// instead of the caches.
func (c *Ctx) do(r Ref) uint64 {
	r.Pre, c.pending = c.pending, 0
	c.ref = r
	if !c.yield(struct{}{}) {
		c.fast.enabled = false
		panic(stopped{})
	}
	return c.prev
}

// Read loads the 64-bit value of the line containing addr.
func (c *Ctx) Read(addr uint64) uint64 {
	if c.fast.enabled {
		if v, ok := c.fastRead(addr); ok {
			return v
		}
	}
	return c.do(Ref{Kind: RefRead, Addr: addr})
}

// Write stores v to the line containing addr.
func (c *Ctx) Write(addr uint64, v uint64) {
	if c.fast.enabled && c.fastWrite(addr, v) {
		return
	}
	c.do(Ref{Kind: RefWrite, Addr: addr, Data: v})
}

// TestAndSet atomically sets the line to 1 and returns its previous value.
func (c *Ctx) TestAndSet(addr uint64) uint64 { return c.do(Ref{Kind: RefTAS, Addr: addr}) }

// FetchAdd atomically adds delta to the line, returning the old value.
func (c *Ctx) FetchAdd(addr uint64, delta uint64) uint64 {
	return c.do(Ref{Kind: RefFetchAdd, Addr: addr, Data: delta})
}

// Compute consumes n cycles of processor time without memory traffic. The
// cycles are banked and attached to the next blocking reference (Ref.Pre)
// rather than handed over immediately, so runs of Compute calls — the
// spin-lock backoff path hits this constantly — cost a single handshake.
// A trailing Compute with no following reference is carried by the
// RefDone sentinel.
func (c *Ctx) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.pending += n
}

// Barrier blocks until every participating processor has arrived. The
// implementation models the hardware barrier registers of §3.2: arrival is
// a multicast register write, and release costs a ring traversal.
func (c *Ctx) Barrier() { c.do(Ref{Kind: RefBarrier}) }

// SetPhase writes the phase identifier register, tagging subsequent
// transactions from this processor for the monitoring hardware.
func (c *Ctx) SetPhase(p uint8) { c.do(Ref{Kind: RefPhase, Phase: p}) }

// Cycle returns the current simulation cycle. The call itself consumes one
// cycle; latency probes subtract accordingly. The probe is always a
// handshake, fast path or not: it pins the program's execution point to its
// CPU's tick, so a program that exchanges work with the simulation loop
// through shared memory (the serving layer's mailboxes) observes exactly
// the state published at or before the returned cycle.
func (c *Ctx) Cycle() int64 { return int64(c.do(Ref{Kind: RefCycle})) }

// Prefetch asks the station's network cache to fetch the line containing
// addr from its remote home in the background (§3.1.4). The processor
// continues immediately; a later Read finds the line in the NC. Prefetch
// of a locally-homed line is a no-op.
func (c *Ctx) Prefetch(addr uint64) { c.do(Ref{Kind: RefPrefetch, Addr: addr}) }

// Kill purges every cached copy of the line containing addr (the special
// function of §3.1.2), blocking until the completion interrupt arrives.
func (c *Ctx) Kill(addr uint64) { c.do(Ref{Kind: RefKill, Addr: addr}) }

// AcquireLock obtains a spin lock at addr using test-and-test-and-set
// with exponential backoff over the simulated memory system, generating
// realistic coherence traffic without the O(P²) invalidation storms of a
// naive spin loop.
func (c *Ctx) AcquireLock(addr uint64) {
	backoff := int64(16)
	for {
		for c.Read(addr) != 0 {
			c.Compute(backoff)
			if backoff < 1024 {
				backoff *= 2
			}
		}
		if c.TestAndSet(addr) == 0 {
			return
		}
		c.Compute(backoff)
		if backoff < 4096 {
			backoff *= 2
		}
	}
}

// ReleaseLock releases a spin lock acquired with AcquireLock.
func (c *Ctx) ReleaseLock(addr uint64) { c.Write(addr, 0) }

// Runner adapts a Program into the pull interface the CPU model consumes:
// the program runs as an iter.Pull coroutine that Next switches to. It is
// not safe for concurrent use; each CPU owns one. Next may be called from
// a different goroutine each time (pool workers do), never from two at
// once.
type Runner struct {
	ctx  *Ctx
	prog Program
	done bool

	// next and stop are the coroutine's handles, created by the first Next
	// so a runner that never runs costs no goroutine.
	next func() (struct{}, bool)
	stop func()
}

// NewRunner prepares prog to run as processor id of nprocs.
func NewRunner(id, nprocs int, prog Program) *Runner {
	return &Runner{ctx: &Ctx{ID: id, NProcs: nprocs}, prog: prog}
}

// run is the coroutine body: the program, then the RefDone sentinel.
func (r *Runner) run(yield func(struct{}) bool) {
	c := r.ctx
	c.yield = yield
	defer func() {
		if e := recover(); e != nil && e != any(stopped{}) {
			panic(e)
		}
	}()
	r.prog(c)
	// Carry any trailing Compute cycles so the completion timestamp
	// matches the uncoalesced execution. Returning ends the coroutine:
	// nothing resumes a finished workload.
	c.ref = Ref{Kind: RefDone, Pre: c.pending}
}

// Next resumes the workload with the result of its previous reference and
// returns the next one. The first call starts the coroutine. After RefDone
// is returned, Next must not be called again. A panic in the program
// surfaces here, in the caller.
func (r *Runner) Next(prev uint64) Ref {
	if r.done {
		panic("proc: Next called after RefDone or Stop")
	}
	c := r.ctx
	if r.next == nil {
		r.next, r.stop = iter.Pull(r.run)
	}
	c.prev = prev
	r.next() // returns with the program parked in do, or finished
	if c.ref.Kind == RefDone {
		r.done = true
	}
	return c.ref
}

// Stop abandons the workload: a program parked mid-reference unwinds (its
// deferred functions run; any Ctx call they make that needs a result
// unwinds again) and its goroutine exits. Without it a parked program is
// unreachable for ever once its machine is dropped, together with
// everything its closure holds. A no-op on a finished or never-started
// runner.
func (r *Runner) Stop() {
	r.done = true
	if r.stop != nil {
		r.stop()
	}
}

// Done reports whether the workload has finished or was stopped.
func (r *Runner) Done() bool { return r.done }
