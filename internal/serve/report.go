package serve

import (
	"fmt"

	"numachine/internal/core"
)

// Report builds the serving-layer results section. It is safe at any
// serial point of the run loop (the telemetry sampler calls it mid-run
// through Machine.Results), and deterministic: every field is a pure
// function of (machine config, spec, seed).
func (ctl *Controller) Report() *core.ServeResults {
	r := &core.ServeResults{
		Spec:       ctl.spec.String(),
		Seed:       ctl.seed,
		Policy:     ctl.spec.Policy,
		Discipline: ctl.spec.Discipline,
		Total:      ctl.total,
		Classes:    append([]core.ServeGroup(nil), ctl.classes...),
		Tenants:    append([]core.ServeGroup(nil), ctl.tenants...),
	}
	if ctl.start >= 0 && ctl.lastDone > ctl.start {
		r.Cycles = ctl.lastDone - ctl.start
	}
	if ctl.resilient {
		r.Resilience = &core.ServeResilience{Ejections: ctl.ejections}
	}
	return r
}

// String renders the spec in canonical clause order; ParseSpec(s.String())
// reproduces s, and a report's Spec field always uses this form.
func (sp Spec) String() string {
	var b []byte
	add := func(format string, args ...any) {
		if len(b) > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, format, args...)
	}
	if sp.OpenRate > 0 {
		add("open=%d", sp.OpenRate)
	}
	if sp.Closed > 0 {
		add("closed=%d", sp.Closed)
	}
	if sp.Duration > 0 {
		add("duration=%d", sp.Duration)
	}
	if sp.Requests > 0 {
		add("requests=%d", sp.Requests)
	}
	add("procs=%d", sp.Procs)
	add("tenants=%d", sp.Tenants)
	add("qcap=%d", sp.QueueCap)
	add("depth=%d", sp.Depth)
	add("span=%d", sp.SpanLines)
	add("poll=%d", sp.Poll)
	add("quantum=%d", sp.Quantum)
	add("discipline=%s", sp.Discipline)
	add("policy=%s", sp.Policy)
	// Resilience clauses render only when set, so pre-resilience specs
	// keep their exact historical canonical form.
	if sp.KillEvery > 0 {
		add("kill=%d", sp.KillEvery)
	}
	if sp.Retries > 0 {
		add("retries=%d", sp.Retries)
		add("backoff=%d:%d", sp.RetryBase, sp.RetryMax)
	}
	if sp.RetryBudget > 0 {
		add("retry-budget=%d", sp.RetryBudget)
	}
	if sp.Hedge > 0 {
		add("hedge=%d", sp.Hedge)
	}
	if sp.BreakerPct > 0 {
		add("breaker=%d:%d", sp.BreakerPct, sp.BreakerCool)
	}
	if sp.Shed {
		add("shed=on")
	}
	for _, c := range sp.Classes {
		add("class=%s:%d:%d:%d:%d:%d", c.Name, c.Weight, c.Touches, c.Think, c.WritePct, c.Deadline)
	}
	return string(b)
}
