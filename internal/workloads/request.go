package workloads

import (
	"numachine/internal/core"
	"numachine/internal/proc"
)

// The serving layer (internal/serve) maps admitted requests onto station
// CPUs as short memory-traversal jobs. The job builder lives here so it
// shares the execution-driven front-end idiom of every other workload:
// real Go control flow whose shared-data accesses are mirrored onto the
// simulated memory system through proc.Ctx.

// Span is a line-granular window of simulated shared memory homed on one
// station — a tenant's working set. Requests traverse it with
// RunRequestPreempt.
type Span struct {
	Base  uint64
	Lines int
	line  uint64 // line size in bytes
}

// NewSpanAt allocates a span of n cache lines placed entirely on the
// given station (page-aligned, overriding the placement policy), so a
// locality-aware placer knows exactly which station owns its pages.
func NewSpanAt(m *core.Machine, station, n int) Span {
	p := m.Params()
	return Span{
		Base:  m.AllocAt(station, n*p.LineSize),
		Lines: n,
		line:  uint64(p.LineSize),
	}
}

// LineAddr returns the address of line i (wrapping around the span).
func (s Span) LineAddr(i int) uint64 {
	return s.Base + uint64(i%s.Lines)*s.line
}

// RequestShape describes one request's traversal of its tenant's span:
// Touches consecutive line accesses starting at line Offset, WritePct
// percent of them writes (spread evenly over the traversal, not drawn
// randomly — the job itself is deterministic; variety comes from the
// generator's seeded shape stream), and Think compute cycles between
// consecutive accesses.
type RequestShape struct {
	Touches  int
	Offset   int
	WritePct int
	Think    int64
}

// RunRequestPreempt executes one request job — the memory-traversal loop
// every admitted request runs on its assigned CPU — under a preemption
// contract: when every is positive, the traversal probes Ctx.Cycle (a
// handshake) after each `every` touches and calls stop with the pinned
// cycle; a true return abandons the remaining touches immediately. It
// reports whether the traversal ran to completion. With every <= 0 it
// never probes mid-request, never calls stop and always completes.
//
// The handshake is what makes kills deterministic: the stop predicate only
// ever observes dispatcher state published at serial drive points at or
// before the returned cycle, under every cycle loop and fast-hits
// setting (the same alternation argument as the serving mailboxes).
func RunRequestPreempt(c *proc.Ctx, sp Span, sh RequestShape, every int, stop func(now int64) bool) bool {
	writes := 0
	for i := 0; i < sh.Touches; i++ {
		addr := sp.LineAddr(sh.Offset + i)
		// Emit a write whenever the running write quota falls behind
		// i*WritePct/100 — an evenly spread, deterministic read/write mix.
		if (i+1)*sh.WritePct >= (writes+1)*100 {
			c.Write(addr, uint64(i))
			writes++
		} else {
			c.Read(addr)
		}
		if sh.Think > 0 {
			c.Compute(sh.Think)
		}
		if every > 0 && (i+1)%every == 0 && i+1 < sh.Touches {
			if stop(c.Cycle()) {
				return false
			}
		}
	}
	return true
}
