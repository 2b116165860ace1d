// Package serve is the serving layer: a deterministic multi-tenant
// request front end that drives the machine as a server instead of a
// batch kernel. A seed-driven load generator produces open-loop
// (Poisson-style) or closed-loop (fixed-concurrency) streams of requests
// drawn from weighted classes; an admission layer queues them per tenant
// (FIFO or EDF service order); a placement policy maps each dispatched
// request onto a station CPU, where it runs as a short memory-traversal
// job over its tenant's span (workloads.RunRequestPreempt); and the results
// layer reports per-tenant/per-class latency percentiles, SLA violation
// rates, admission drops and saturation throughput.
//
// Everything is a pure function of (machine config, spec, seed): the
// generator draws from substream PRNGs in arrival order, the dispatcher
// runs only at Machine.SetDriver serial points (exactly the same cycles
// under every cycle loop), and workers exchange work with the dispatcher
// only around proc.Ctx.Sync handshakes — so the same spec+seed produces
// byte-identical reports across the test-only reference order and both
// executors, with the front-end hit fast path on or off. The equivalence
// tests in internal/core pin this.
package serve

import (
	"fmt"
	"strings"

	"numachine/internal/sim"
)

// Class is one request class: a weighted slice of the arrival stream with
// a fixed job shape and an SLA deadline.
type Class struct {
	Name     string
	Weight   int   // relative share of arrivals
	Touches  int   // lines traversed per request
	Think    int64 // compute cycles between touches
	WritePct int   // percent of touches that are writes
	Deadline int64 // SLA: cycles from arrival to completion; 0 = none
}

// Spec configures one serving run. Exactly one of OpenRate/Closed is
// non-zero.
type Spec struct {
	OpenRate int   // open loop: mean arrivals per 1000 cycles
	Closed   int   // closed loop: fixed in-flight concurrency
	Duration int64 // open loop: arrival window in cycles
	Requests int   // total requests (cap for open loop; required closed)

	Procs     int   // worker CPUs (the first Procs processors)
	Tenants   int   // tenant count; each gets its own queue and span
	QueueCap  int   // per-tenant admission queue capacity
	Depth     int   // per-worker outstanding dispatch depth
	SpanLines int   // per-tenant span size in cache lines
	Poll      int64 // worker idle poll interval, cycles
	Quantum   int64 // dispatcher drive period, cycles

	Discipline string // fifo | edf
	Policy     string // static | locality | least-load

	// Resilience knobs (all zero = off; a zero-resilience spec renders
	// and behaves as the serving layer did before they existed).
	KillEvery   int   // preemption check period, touches (0 = never kill)
	Retries     int   // max re-issues per job after a deadline kill
	RetryBase   int64 // backoff base delay, cycles (bounded exponential)
	RetryMax    int64 // backoff cap, cycles
	RetryBudget int   // per-tenant total retry budget (0 = unlimited)
	Hedge       int64 // hedge delay, cycles (0 = no hedging)
	BreakerPct  int   // breaker trip threshold, percent of fleet-mean health
	BreakerCool int64 // breaker cooldown, cycles
	Shed        bool  // deadline-aware admission shedding

	Classes []Class
}

// resilient reports whether any resilience mechanism is enabled. Every
// spec runs the same request path; a zero-resilience one draws, renders
// and behaves as the serving layer did before resilience existed
// (TestServeZeroResilienceGolden pins it). Two rules depend on this:
// only a resilient closed loop replaces admission drops, and only a
// resilient report carries the Resilience section.
func (sp Spec) resilient() bool {
	return sp.KillEvery > 0 || sp.Retries > 0 || sp.Hedge > 0 ||
		sp.BreakerPct > 0 || sp.Shed
}

// DefaultSpec is the canonical scenario: a moderate open-loop mix of
// latency-sensitive interactive requests and heavy batch requests. The
// empty spec string parses to exactly this.
const DefaultSpec = "open=2,duration=100000,procs=16,tenants=4,class=interactive:4:16:40:25:6000,class=batch:1:96:100:50:0"

func defaults() Spec {
	return Spec{
		Procs:      16,
		Tenants:    4,
		QueueCap:   64,
		Depth:      2,
		SpanLines:  2048,
		Poll:       200,
		Quantum:    100,
		Discipline: "fifo",
		Policy:     "static",
	}
}

// defaultClasses is applied when the spec names none.
func defaultClasses() []Class {
	return []Class{
		{Name: "interactive", Weight: 4, Touches: 16, Think: 40, WritePct: 25, Deadline: 6000},
		{Name: "batch", Weight: 1, Touches: 96, Think: 100, WritePct: 50, Deadline: 0},
	}
}

// ParseSpec parses the -serve-spec flag syntax: a comma-separated list of
// key=value clauses.
//
//	open=R            open loop, mean R arrivals per 1000 cycles
//	closed=C          closed loop, C requests always in flight
//	duration=N        open-loop arrival window, cycles
//	requests=N        total requests (cap; required for closed loop)
//	procs=P           worker CPUs
//	tenants=T         tenants (own queue + own span each)
//	qcap=N            per-tenant queue capacity
//	depth=N           per-worker outstanding dispatch depth
//	span=N            per-tenant span, cache lines
//	poll=N            worker idle poll interval, cycles
//	quantum=N         dispatcher drive period, cycles
//	discipline=D      fifo | edf
//	policy=P          static | locality | least-load
//	class=NAME:W:T:K:PCT:DL
//	                  request class: weight W, T line touches, K think
//	                  cycles per touch, PCT percent writes, deadline DL
//	                  cycles (0 = no SLA); repeatable, replaces defaults
//
// Resilience clauses (all optional; absent = off):
//
//	kill=N            deadline preemption: check the deadline at a Sync
//	                  every N touches and kill the request if passed
//	retries=N         re-issue a killed job up to N times (requires kill=)
//	backoff=B:M       retry backoff base B and cap M, cycles (bounded
//	                  exponential; default 100:1600 when retries= is set)
//	retry-budget=N    per-tenant total retry budget (requires retries=)
//	hedge=D           re-issue a still-running request to a second station
//	                  D(+jitter) cycles after dispatch; first completion
//	                  wins, the loser is cancelled (requires kill=)
//	breaker=P:C       circuit breaker: eject a station from placement for
//	                  C cycles when its health score exceeds P percent of
//	                  the fleet mean (P >= 100)
//	shed=on           drop requests at admission when the deadline is
//	                  already unreachable by the class's service estimate
//
// The empty string parses to DefaultSpec.
func ParseSpec(s string) (Spec, error) {
	if s == "" {
		s = DefaultSpec
	}
	sp := defaults()
	// The clauses whose value is one positive number, by field.
	counts := map[string]*int{
		"open": &sp.OpenRate, "closed": &sp.Closed, "requests": &sp.Requests,
		"procs": &sp.Procs, "tenants": &sp.Tenants, "qcap": &sp.QueueCap,
		"depth": &sp.Depth, "span": &sp.SpanLines, "kill": &sp.KillEvery,
		"retries": &sp.Retries, "retry-budget": &sp.RetryBudget,
	}
	cycles := map[string]*int64{
		"duration": &sp.Duration, "poll": &sp.Poll, "quantum": &sp.Quantum, "hedge": &sp.Hedge,
	}
	err := sim.ParseClauses("serve", s, func(key, val string) (err error) {
		if p := counts[key]; p != nil {
			*p, err = sim.ParseCount(val)
			return err
		}
		if p := cycles[key]; p != nil {
			*p, err = sim.ParsePositive(val)
			return err
		}
		switch key {
		case "discipline":
			switch val {
			case "fifo", "edf":
				sp.Discipline = val
			default:
				err = fmt.Errorf("unknown discipline %q (have fifo, edf)", val)
			}
		case "policy":
			switch val {
			case "static", "locality", "least-load":
				sp.Policy = val
			default:
				err = fmt.Errorf("unknown policy %q (have static, locality, least-load)", val)
			}
		case "backoff":
			var base, max string
			if base, max, err = sim.CutPair("backoff", "BASE:MAX", val); err != nil {
				break
			}
			if sp.RetryBase, err = sim.ParsePositive(base); err != nil {
				break
			}
			sp.RetryMax, err = sim.ParsePositive(max)
		case "breaker":
			var pct, cool string
			if pct, cool, err = sim.CutPair("breaker", "PCT:COOLDOWN", val); err != nil {
				break
			}
			if sp.BreakerPct, err = sim.ParseCount(pct); err != nil {
				break
			}
			sp.BreakerCool, err = sim.ParsePositive(cool)
		case "shed":
			if val != "on" {
				err = fmt.Errorf("shed=%q (only shed=on)", val)
				break
			}
			sp.Shed = true
		case "class":
			var c Class
			c, err = parseClass(val)
			sp.Classes = append(sp.Classes, c)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		return err
	})
	if err != nil {
		return Spec{}, err
	}
	if len(sp.Classes) == 0 {
		sp.Classes = defaultClasses()
	}
	if sp.Retries > 0 && sp.RetryBase == 0 {
		sp.RetryBase, sp.RetryMax = 100, 1600
	}
	if err := sp.validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func (sp Spec) validate() error {
	switch {
	case sp.OpenRate > 0 && sp.Closed > 0:
		return fmt.Errorf("serve: open=%d and closed=%d are mutually exclusive", sp.OpenRate, sp.Closed)
	case sp.OpenRate == 0 && sp.Closed == 0:
		return fmt.Errorf("serve: one of open= or closed= is required")
	case sp.OpenRate > 0 && sp.Duration == 0 && sp.Requests == 0:
		return fmt.Errorf("serve: open loop needs duration= or requests=")
	case sp.Closed > 0 && sp.Requests == 0:
		return fmt.Errorf("serve: closed loop needs requests=")
	case sp.Retries > 0 && sp.KillEvery == 0:
		return fmt.Errorf("serve: retries= needs kill= (a job only retries after a deadline kill)")
	case sp.RetryBase > 0 && sp.Retries == 0:
		return fmt.Errorf("serve: backoff= needs retries=")
	case sp.RetryBase > 0 && sp.RetryMax < sp.RetryBase:
		return fmt.Errorf("serve: backoff cap %d below base %d", sp.RetryMax, sp.RetryBase)
	case sp.RetryBudget > 0 && sp.Retries == 0:
		return fmt.Errorf("serve: retry-budget= needs retries=")
	case sp.Hedge > 0 && sp.KillEvery == 0:
		return fmt.Errorf("serve: hedge= needs kill= (loser cancellation preempts at Sync points)")
	case sp.BreakerPct > 0 && sp.BreakerPct < 100:
		return fmt.Errorf("serve: breaker threshold %d%% below 100%% of the fleet mean", sp.BreakerPct)
	case sp.BreakerPct > 0 && sp.BreakerCool == 0:
		return fmt.Errorf("serve: breaker= needs a positive cooldown")
	}
	seen := map[string]bool{}
	for _, c := range sp.Classes {
		if c.Name == "" {
			return fmt.Errorf("serve: class with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("serve: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

func parseClass(s string) (Class, error) {
	f := strings.Split(s, ":")
	if len(f) != 6 {
		return Class{}, fmt.Errorf("class %q is not NAME:WEIGHT:TOUCHES:THINK:WRITEPCT:DEADLINE", s)
	}
	c := Class{Name: f[0]}
	var err error
	if c.Weight, err = sim.ParseCount(f[1]); err != nil {
		return Class{}, fmt.Errorf("weight: %w", err)
	}
	if c.Touches, err = sim.ParseCount(f[2]); err != nil {
		return Class{}, fmt.Errorf("touches: %w", err)
	}
	if c.Think, err = sim.ParseNonNeg(f[3]); err != nil {
		return Class{}, fmt.Errorf("think: %w", err)
	}
	pct, err := sim.ParseNonNeg(f[4])
	if err != nil || pct > 100 {
		return Class{}, fmt.Errorf("writepct %q outside [0,100]", f[4])
	}
	c.WritePct = int(pct)
	if c.Deadline, err = sim.ParseNonNeg(f[5]); err != nil {
		return Class{}, fmt.Errorf("deadline: %w", err)
	}
	return c, nil
}
