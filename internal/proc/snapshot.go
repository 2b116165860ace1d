package proc

import (
	"numachine/internal/msg"
	"numachine/internal/snap"
)

// Encode appends the CPU's behaviorally relevant state to a canonical
// encoding (see internal/snap and DESIGN.md "Verification").
//
// Excluded as monitoring-only: Stats, RetryLatency/RetryStreak, finishAt,
// statsAt, firstIssueAt, phase/phaseTxns. Excluded because the model checker runs with the
// front-end fast path off: fastGuard. Excluded because the checker
// installs its Backoff.Choice (the jitter stream is never drawn): Backoff.
// The workload coroutine itself carries no hidden state the checker needs:
// between references it is parked in Ctx.do, and the checker's driver
// programs are straight-line, so the per-CPU program counter the checker
// encodes separately fully determines it.
func (c *CPU) Encode(e *snap.Enc) {
	e.Byte(byte(c.st))
	e.Time(c.thinkUntil)
	e.Time(c.retryAt)
	e.U64(c.lastResult)
	e.Int(c.nakStreak)
	encodeRef(e, c.cur)
	e.U64(c.curLine)
	e.Bool(c.hasStash)
	if c.hasStash {
		encodeRef(e, c.stash)
	}
	if c.l1 != nil {
		e.Byte(1)
		c.l1.Encode(e)
	} else {
		e.Byte(0)
	}
	c.l2.Encode(e)
	e.Int(c.BusOut().Len())
	c.BusOut().Each(func(m *msg.Message) { m.Encode(e) })
}

func encodeRef(e *snap.Enc, r Ref) {
	e.Byte(byte(r.Kind))
	e.U64(r.Addr)
	e.U64(r.Data)
	e.Byte(r.Phase)
	e.I64(r.Pre)
}
