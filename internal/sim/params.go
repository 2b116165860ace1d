// Package sim provides the shared substrate for the NUMAchine behavioral
// simulator: the timing parameter set, deterministic pseudo-randomness,
// instrumented FIFO queues and small helpers used by every component model.
//
// All times are expressed in CPU clock cycles. The prototype CPU is a
// 150 MHz MIPS R4400, so one cycle is 6.67 ns; results can be converted to
// nanoseconds with CyclesToNS.
package sim

import "math"

// Never is the wake-up time of a component that cannot do any work until an
// external event (a bus delivery, a ring slot, a barrier's last arrival) reaches
// it. It compares greater than every real cycle number.
const Never = int64(math.MaxInt64)

// Params collects every architectural and timing knob of the simulated
// machine. DefaultParams is calibrated so that the contention-free latency
// probe reproduces the paper's Table 1 within a small tolerance.
type Params struct {
	// Geometry-independent structure.
	LineSize int // cache line size in bytes (64 in the prototype)
	PageSize int // physical page size used for placement (4096)
	L2Lines  int // secondary cache capacity in lines, per processor
	NCLines  int // network cache capacity in lines, per station

	// Processor / secondary cache timing.
	L2HitCycles      int // load-to-use for an L2 hit (L1 miss)
	ProcMissOverhead int // external-agent + FIFO overhead on any miss
	L2FillCycles     int // writing a fetched line into the L2
	RetryDelay       int // back-off before re-issuing a NAK'ed request

	// Adaptive NAK retry. With RetryBackoff off (the default), every NAK
	// re-issues after exactly RetryDelay cycles, reproducing the
	// prototype's fixed back-off. With it on, consecutive NAKs of the
	// same reference double the delay up to the RetryMaxDelay cap and add a
	// deterministic per-requester jitter in [0, delay/2) drawn from a
	// PRNG seeded with RetryJitterSeed, breaking up retry convoys while
	// keeping all cycle loops bit-identical.
	RetryBackoff    bool
	RetryJitterSeed uint64 // base seed for the per-requester jitter PRNGs

	// Station bus timing.
	BusArbCycles  int // arbitration latency once the bus is free
	BusCmdCycles  int // occupancy of a command-only transfer
	BusDataCycles int // additional occupancy for a cache-line payload

	// Memory module timing.
	MemDirCycles  int // SRAM directory lookup + update
	MemDRAMCycles int // DRAM access for a line

	// Network cache timing.
	NCDirCycles  int // SRAM tag/state lookup + update
	NCDRAMCycles int // DRAM access for a line

	// Ring and ring interface timing.
	RingHopCycles  int // one slot advance (ring clock vs CPU clock ratio)
	RIPackCycles   int // packet generator latency (bus -> ring)
	RIUnpackCycles int // packet handler latency (ring -> bus)
	IRICycles      int // inter-ring interface switch latency, each way
	RingInputFIFO  int // ring-interface input FIFO capacity (flow control)
	MaxNonsinkable int // nonsinkable messages in flight per station (16)

	// Protocol options (the paper's design choices; flipping them gives the
	// ablation experiments).
	SCLocking bool // hold write data until the invalidation returns (§2.3)

	// Watchdog: abort the simulation if no processor makes progress for this
	// many cycles (0 disables). Catches protocol deadlocks in development.
	DeadlockCycles int64

	// Starvation detector (sampled on the watchdog schedule, so detection
	// cycles are identical under every cycle loop): abort when one
	// processor sits in a memory-wait state with no completed reference for
	// this many consecutive watchdog windows while the rest of the machine
	// progresses (0 disables). A reference's consecutive NAKs are bounded
	// by the model checker's own per-reference budget, not here.
	StarvationWindows int
}

// DefaultParams returns the calibrated prototype parameter set.
func DefaultParams() Params {
	return Params{
		LineSize: 64,
		PageSize: 4096,
		L2Lines:  16384, // 1 MB / 64 B
		NCLines:  65536, // 4 MB / 64 B

		L2HitCycles:      4,
		ProcMissOverhead: 20,
		L2FillCycles:     8,
		RetryDelay:       24,

		BusArbCycles:  2,
		BusCmdCycles:  3,
		BusDataCycles: 12,

		MemDirCycles:  6,
		MemDRAMCycles: 34,

		NCDirCycles:  6,
		NCDRAMCycles: 24,

		RingHopCycles:  3,
		RIPackCycles:   6,
		RIUnpackCycles: 6,
		IRICycles:      6,
		RingInputFIFO:  64,
		MaxNonsinkable: 16,

		SCLocking: true,

		DeadlockCycles:    3_000_000,
		StarvationWindows: 8,
	}
}

// CPUClockMHz is the prototype's processor clock, used only to convert
// cycles to nanoseconds.
const CPUClockMHz = 150

// CyclesToNS converts a cycle count to nanoseconds at CPUClockMHz.
func CyclesToNS(cycles int64) float64 {
	return float64(cycles) * 1000.0 / CPUClockMHz
}

// Backoff is one requester's NAK back-off: the jitter stream it draws
// from and, when Choice is set, the model checker's override. Every
// requester that re-issues after a NAK — a processor, a network cache —
// holds one.
type Backoff struct {
	rng RNG
	// Choice, when non-nil, replaces the computed delay: the model checker
	// installs it to turn NAK retry timing into an explored choice point.
	// It receives the consecutive-NAK count and the fixed RetryDelay.
	Choice func(streak int, base int64) int64
}

// RetryMaxDelay caps the adaptive back-off's doubling, in cycles, before
// the jitter is added.
const RetryMaxDelay = 1024

// NewBackoff returns a back-off whose jitter stream is seeded with seed.
func NewBackoff(seed uint64) Backoff { return Backoff{rng: *NewRNG(seed)} }

// Delay returns the back-off before re-issuing a request that has absorbed
// streak consecutive NAKs. With RetryBackoff off it is the fixed RetryDelay
// of the prototype; otherwise the delay doubles per NAK up to RetryMaxDelay
// and gains a jitter in [0, delay/2] drawn from the requester's own stream,
// so colliding requesters spread out instead of re-colliding in lockstep.
func (b *Backoff) Delay(p *Params, streak int) int64 {
	d := int64(p.RetryDelay)
	if b.Choice != nil {
		return b.Choice(streak, d)
	}
	if !p.RetryBackoff {
		return d
	}
	d = min(d<<uint(min(streak, 16)), RetryMaxDelay)
	if d > 1 {
		d += int64(b.rng.Intn(int(d/2) + 1))
	}
	return d
}
