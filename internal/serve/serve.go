package serve

import (
	"fmt"
	"math"

	"numachine/internal/core"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/workloads"
)

// Health-monitor tuning. The EWMA smooths per-drive station observations
// (mean service latency plus a penalty per new NAK retry / timeout
// re-issue); the breaker needs a few samples before it may trip so a
// single slow request cannot eject a station.
const (
	healthAlpha      = 0.25 // EWMA weight of the newest observation
	healthNAKPenalty = 32.0 // score cycles charged per new NAK/timeout
	healthMinSamples = 4    // observations before a station may trip
)

// job is the logical unit of client work. A job is issued as one or more
// request copies (the original, retries after deadline kills, hedged
// second copies); the copies share one job so retries are budgeted and
// exactly one completion is accounted. All fields are dispatcher-owned
// (mutated only at serial drive points).
type job struct {
	retries     int   // re-issues so far
	copies      int   // dispatched copies not yet collected
	hedged      bool  // current attempt already has a hedge copy
	done        bool  // a copy completed; siblings are stragglers
	failed      bool  // abandoned (retries/budget/queue exhausted)
	hedgeJitter int64 // seed-drawn extra hedge delay, fixed per job
}

// request is one issued copy of a job flowing generator -> tenant queue ->
// worker mailbox -> completion accounting. All cycle stamps are absolute.
// The dispatcher writes cancel only at serial drive points and the worker
// reads it only at Ctx.Cycle handshakes (and vice versa for killed), the
// same alternation contract that makes the mailboxes race-free.
type request struct {
	seq      int64
	tenant   int
	class    int
	arrived  int64 // generator's arrival cycle (original job arrival)
	deadline int64 // absolute SLA deadline for this attempt (sim.Never when none)
	shape    workloads.RequestShape

	// job is the job this copy serves. The request that opens a job holds
	// it in opened, and every reissued copy points there.
	job      *job
	opened   job
	eligible int64 // earliest dispatch cycle (retry backoff)
	worker   int   // box index the copy was dispatched to

	started int64 // worker's dispatch-observation cycle (Ctx.Cycle)
	done    int64 // worker's completion/kill cycle (Ctx.Cycle)

	hedge     bool // this copy is the hedged re-issue
	cancel    bool // dispatcher: sibling won, abandon at next Cycle check
	killed    bool // worker: traversal preempted (deadline or cancel)
	collected bool // drained from its worker's out list
}

// box is one worker's mailbox. The dispatcher appends to in and drains
// out; the worker goroutine reads in[head:] and appends to out. The two
// sides never run concurrently: the worker only executes nested inside
// its CPU's tick (the front-end alternation invariant), and the
// dispatcher only at SetDriver serial points. The worker consumes
// in-slots by advancing head; the dispatcher drops the consumed prefix
// at each collect, so in holds at most Depth entries.
type box struct {
	in   []*request
	head int
	out  []*request
	stop bool

	load     int    // dispatched minus collected (dispatcher-owned)
	doorbell uint64 // line the worker polls while idle (feeds the watchdog)
}

// stationHealth is the breaker's view of one worker station: an EWMA
// health score (cycles; higher = sicker) and the circuit state.
type stationHealth struct {
	score     float64
	samples   int64
	openUntil int64 // breaker open (station ejected) until this cycle
	lastCum   int64 // cumulative NAK+timeout count at the last sample
}

// Controller owns one serving run over one machine.
type Controller struct {
	spec Spec
	seed uint64
	m    *core.Machine

	// Substream PRNGs, one per decision site, drawn in arrival order only
	// (inside the drive hook), as internal/fault does per component.
	// retryRNG draws in collect order and hedgeRNG in arrival order; both
	// exist only when their mechanism is enabled, so a zero-resilience spec
	// draws what it drew before resilience existed and renders the same
	// report (TestServeZeroResilienceGolden pins it).
	gapRNG    *sim.RNG // open-loop inter-arrival gaps
	classRNG  *sim.RNG // class picks
	tenantRNG *sim.RNG // tenant picks
	shapeRNG  *sim.RNG // per-request traversal offsets
	retryRNG  *sim.RNG // retry backoff jitter
	hedgeRNG  *sim.RNG // per-job hedge-delay jitter

	spans  []workloads.Span // per tenant
	homes  []int            // per tenant: station owning the span
	boxes  []*box
	queues [][]*request // per tenant, service order decided at dispatch

	seq      int64      // requests generated so far
	arriving []*request // admitted this drive, pending queue insert
	nextAt   int64      // next open-loop arrival cycle
	openDone bool
	rrCursor int // static policy round-robin position

	flight         []*request // dispatched, uncollected copies (hedging only)
	tenantRetries  []int      // per tenant, against spec.RetryBudget
	classEst       []float64  // per class service-time EWMA (shedder)
	health         []stationHealth
	svcSum, svcCnt []int64 // per station, this drive's latency evidence
	workerStations int
	ejections      int64

	start    int64 // first drive cycle
	lastDone int64

	total   core.ServeGroup
	classes []core.ServeGroup
	tenants []core.ServeGroup

	weightSum int
}

// New validates the spec against the machine and builds a controller.
// Call Run to execute the scenario.
func New(m *core.Machine, sp Spec, seed uint64) (*Controller, error) {
	if sp.Procs > m.Geometry().Procs() {
		return nil, fmt.Errorf("serve: %d workers on a %d-processor machine", sp.Procs, m.Geometry().Procs())
	}
	ctl := &Controller{
		spec:      sp,
		seed:      seed,
		m:         m,
		gapRNG:    sim.NewRNG(sim.Substream(seed, "serve/gap")),
		classRNG:  sim.NewRNG(sim.Substream(seed, "serve/class")),
		tenantRNG: sim.NewRNG(sim.Substream(seed, "serve/tenant")),
		shapeRNG:  sim.NewRNG(sim.Substream(seed, "serve/shape")),
		start:     -1,
		classes:   make([]core.ServeGroup, len(sp.Classes)),
		tenants:   make([]core.ServeGroup, sp.Tenants),
		queues:    make([][]*request, sp.Tenants),
	}
	if sp.Retries > 0 {
		ctl.retryRNG = sim.NewRNG(sim.Substream(seed, "serve/retry"))
		ctl.tenantRetries = make([]int, sp.Tenants)
	}
	if sp.Hedge > 0 {
		ctl.hedgeRNG = sim.NewRNG(sim.Substream(seed, "serve/hedge"))
	}
	if sp.Shed {
		ctl.classEst = make([]float64, len(sp.Classes))
	}
	for i, c := range sp.Classes {
		ctl.classes[i].Name = c.Name
		ctl.weightSum += c.Weight
	}
	pps := m.Geometry().ProcsPerStation
	occupied := (sp.Procs + pps - 1) / pps // stations that actually host workers
	ctl.workerStations = occupied
	if sp.BreakerPct > 0 {
		ctl.health = make([]stationHealth, occupied)
		ctl.svcSum = make([]int64, occupied)
		ctl.svcCnt = make([]int64, occupied)
	}
	for t := 0; t < sp.Tenants; t++ {
		ctl.tenants[t].Name = fmt.Sprintf("tenant%d", t)
		ctl.homes = append(ctl.homes, t%occupied)
		ctl.spans = append(ctl.spans, workloads.NewSpanAt(m, t%occupied, sp.SpanLines))
	}
	for w := 0; w < sp.Procs; w++ {
		b := &box{doorbell: m.AllocAt(w/pps, m.Params().LineSize)}
		ctl.boxes = append(ctl.boxes, b)
	}
	return ctl, nil
}

// Run loads the worker programs, attaches the dispatcher to the run
// loop's drive hook, and executes the scenario to completion. It returns
// the machine's parallel-section cycle count; the serving report is
// available from Report (and through Machine.Results).
func (ctl *Controller) Run() int64 {
	progs := make([]proc.Program, ctl.spec.Procs)
	for w := range progs {
		progs[w] = ctl.worker(w)
	}
	ctl.m.Load(progs)
	ctl.m.SetDriver(ctl.spec.Quantum, ctl.drive)
	ctl.m.SetServeReport(ctl.Report)
	cycles := ctl.m.Run()
	ctl.m.SetDriver(0, nil)
	return cycles
}

// worker builds worker w's program: poll the mailbox at handshake-pinned
// cycles, run each dispatched request as a span traversal, stamp its
// start/completion cycles, and park on the idle poll otherwise. Every
// mailbox access sits next to a Ctx.Cycle handshake, so the goroutine
// observes exactly the dispatcher state published at or before the
// returned cycle under every cycle loop and fast-hits setting.
//
// With kill= enabled the traversal is preemptible: every KillEvery
// touches it probes the cycle and abandons the request if its deadline has
// passed or the dispatcher cancelled it (a hedge sibling won). The kill
// decision depends only on the pinned probe cycle and on dispatcher state
// published at serial points, so kills land at identical cycles under
// every loop. Without kill= (KillEvery 0) the traversal never probes
// mid-request and always completes.
func (ctl *Controller) worker(w int) proc.Program {
	sp := ctl.spec
	return func(c *proc.Ctx) {
		b := ctl.boxes[w]
		for {
			t := c.Cycle()
			if b.head < len(b.in) {
				r := b.in[b.head]
				b.head++
				r.started = t
				r.killed = !workloads.RunRequestPreempt(c, ctl.spans[r.tenant], r.shape, sp.KillEvery,
					func(at int64) bool { return r.cancel || at > r.deadline })
				r.done = c.Cycle()
				b.out = append(b.out, r)
				continue
			}
			if b.stop {
				return
			}
			// Idle: poll the doorbell line (keeps the forward-progress
			// watchdog fed — an idle server still executes its poll loop)
			// and sleep until the next poll.
			c.Read(b.doorbell)
			c.Compute(sp.Poll)
		}
	}
}

// drive is the dispatcher, run at a serial point of the machine's run
// loop every Quantum cycles — at exactly the same cycles under every
// loop. One drive: collect completions (issuing retries), refresh station
// health and the circuit breaker, sweep the in-flight list for hedges and
// cancellations, generate arrivals due by now, admit them (shedding
// doomed ones), dispatch queued requests to workers, and signal shutdown
// once everything has drained.
func (ctl *Controller) drive(m *core.Machine) {
	now := m.Now()
	if ctl.start < 0 {
		ctl.start = now
		ctl.prime(now)
	}
	ctl.collect(now)
	if ctl.spec.BreakerPct > 0 {
		ctl.updateHealth(now)
	}
	if ctl.spec.Hedge > 0 {
		ctl.flightSweep(now)
	}
	ctl.generate(now)
	ctl.admit(now)
	ctl.dispatch(now)
	if ctl.genDone() && ctl.drained() {
		for _, b := range ctl.boxes {
			b.stop = true
		}
	}
}

// drained reports whether no request waits in a tenant queue and no copy
// is dispatched but uncollected.
func (ctl *Controller) drained() bool {
	for _, q := range ctl.queues {
		if len(q) > 0 {
			return false
		}
	}
	for _, b := range ctl.boxes {
		if b.load > 0 {
			return false
		}
	}
	return true
}

// prime seeds the arrival process at the first drive.
func (ctl *Controller) prime(now int64) {
	if ctl.spec.OpenRate > 0 {
		ctl.nextAt = now + ctl.gap()
		return
	}
	// Closed loop: fill the concurrency window.
	for i := 0; i < ctl.spec.Closed && ctl.seq < int64(ctl.spec.Requests); i++ {
		ctl.arriving = append(ctl.arriving, ctl.newRequest(now))
	}
}

// gap draws one open-loop inter-arrival gap: exponential with mean
// 1000/OpenRate cycles, floored at one cycle.
func (ctl *Controller) gap() int64 {
	u := 1 - ctl.gapRNG.Float64() // (0, 1]
	g := int64(-math.Log(u) * 1000 / float64(ctl.spec.OpenRate))
	if g < 1 {
		g = 1
	}
	return g
}

// generate produces the open-loop arrivals due at or before now.
func (ctl *Controller) generate(now int64) {
	if ctl.spec.OpenRate == 0 {
		return
	}
	for !ctl.openDone && ctl.nextAt <= now {
		ctl.arriving = append(ctl.arriving, ctl.newRequest(ctl.nextAt))
		ctl.nextAt += ctl.gap()
		ctl.checkOpenDone()
	}
	ctl.checkOpenDone()
}

func (ctl *Controller) checkOpenDone() {
	if ctl.spec.Duration > 0 && ctl.nextAt > ctl.start+ctl.spec.Duration {
		ctl.openDone = true
	}
	if ctl.spec.Requests > 0 && ctl.seq >= int64(ctl.spec.Requests) {
		ctl.openDone = true
	}
}

// genDone reports whether the arrival process has finished.
func (ctl *Controller) genDone() bool {
	if ctl.spec.OpenRate > 0 {
		return ctl.openDone
	}
	return ctl.seq >= int64(ctl.spec.Requests)
}

// newRequest draws one request, which opens its job: tenant, class and
// traversal offset each come from their own substream, consumed strictly
// in arrival order (as is the hedge jitter, whose stream only exists when
// hedging is on).
func (ctl *Controller) newRequest(arrived int64) *request {
	sp := ctl.spec
	tenant := ctl.tenantRNG.Intn(sp.Tenants)
	pick := ctl.classRNG.Intn(ctl.weightSum)
	class := 0
	for i, c := range sp.Classes {
		if pick < c.Weight {
			class = i
			break
		}
		pick -= c.Weight
	}
	cl := sp.Classes[class]
	deadline := sim.Never
	if cl.Deadline > 0 {
		deadline = arrived + cl.Deadline
	}
	r := &request{
		seq:      ctl.seq,
		tenant:   tenant,
		class:    class,
		arrived:  arrived,
		deadline: deadline,
		started:  -1,
		worker:   -1,
		shape: workloads.RequestShape{
			Touches:  cl.Touches,
			Offset:   ctl.shapeRNG.Intn(sp.SpanLines),
			WritePct: cl.WritePct,
			Think:    cl.Think,
		},
	}
	r.job = &r.opened
	if sp.Hedge > 0 {
		r.opened.hedgeJitter = int64(ctl.hedgeRNG.Intn(int(sp.Hedge)))
	}
	ctl.seq++
	return r
}

// reissue clones a copy of r's job for a fresh dispatch (retry or hedge):
// same seq, tenant, class, arrival, shape and job, clean per-copy state.
func (r *request) reissue() *request {
	c := *r
	c.cancel, c.killed, c.collected, c.hedge = false, false, false, false
	c.started, c.done, c.worker, c.eligible = -1, 0, -1, 0
	return &c
}

// admit moves this drive's arrivals into their tenant queues, dropping
// when a queue is at capacity and — with shed=on — shedding requests
// whose deadline is already unreachable by the class's service estimate
// (spending no machine cycles on work that cannot meet its SLA). The
// index loop matters: in resilient closed-loop runs a terminal drop/shed
// spawns its replacement arrival immediately, appended to the same slice.
func (ctl *Controller) admit(now int64) {
	for i := 0; i < len(ctl.arriving); i++ {
		r := ctl.arriving[i]
		if ctl.spec.Shed && r.deadline != sim.Never {
			if est := ctl.classEst[r.class]; est > 0 && float64(now)+est > float64(r.deadline) {
				ctl.account(r, func(g *core.ServeGroup) {
					g.Arrived++
					g.Shed++
				})
				ctl.replace(now)
				continue
			}
		}
		full := len(ctl.queues[r.tenant]) >= ctl.spec.QueueCap
		ctl.account(r, func(g *core.ServeGroup) {
			g.Arrived++
			if full {
				g.Dropped++
			}
		})
		if full {
			// A resilient closed loop replaces admission drops, or a chaos
			// schedule could bleed the concurrency window down to a hang;
			// a zero-resilience one does not (its golden report pins it).
			if ctl.spec.resilient() {
				ctl.replace(now)
			}
			continue
		}
		ctl.queues[r.tenant] = append(ctl.queues[r.tenant], r)
	}
	ctl.arriving = ctl.arriving[:0]
}

// replace spawns a closed-loop replacement arrival for a terminally
// resolved job (completed, failed, dropped or shed). No-op in open loop
// or once the request budget is exhausted.
func (ctl *Controller) replace(now int64) {
	if ctl.spec.Closed > 0 && ctl.seq < int64(ctl.spec.Requests) {
		ctl.arriving = append(ctl.arriving, ctl.newRequest(now))
	}
}

// account applies f to each accumulator a request contributes to: the
// run total, its class and its tenant.
func (ctl *Controller) account(r *request, f func(*core.ServeGroup)) {
	f(&ctl.total)
	f(&ctl.classes[r.class])
	f(&ctl.tenants[r.tenant])
}

// collect drains every worker's out list, accounting completed copies
// (latency, SLA verdict), killed copies (timeouts), and — once a job's
// last outstanding copy resolves without success — issuing its retry or
// declaring it failed. Box order and per-box FIFO order are fixed, so the
// retry-jitter stream is consumed identically under every loop.
func (ctl *Controller) collect(now int64) {
	for _, b := range ctl.boxes {
		for _, r := range b.out {
			b.load--
			r.collected = true
			if r.done > ctl.lastDone {
				ctl.lastDone = r.done
			}
			if ctl.spec.BreakerPct > 0 {
				s := r.worker / ctl.m.Geometry().ProcsPerStation
				ctl.svcSum[s] += r.done - r.started
				ctl.svcCnt[s]++
			}
			ctl.resolve(r, now)
		}
		b.out = b.out[:0]
		b.in = append(b.in[:0], b.in[b.head:]...)
		b.head = 0
	}
}

// resolve accounts one collected copy of its job and, when it was the
// job's last outstanding copy without a completion, decides retry vs
// failure. Without kills every copy completes, and without retries or
// hedges every job has one copy.
func (ctl *Controller) resolve(r *request, now int64) {
	j := r.job
	j.copies--
	switch {
	case r.killed && r.cancel:
		// Cancelled straggler (its sibling won); nothing to account.
	case r.killed:
		ctl.account(r, func(g *core.ServeGroup) { g.Timeouts++ })
	case j.done:
		// Completed after its sibling already won; drop silently.
	default:
		// The copy that completes its job: queueing, service and
		// end-to-end latency, the SLA verdict, a hedge win, and the
		// closed-loop replacement.
		j.done = true
		ctl.account(r, func(g *core.ServeGroup) {
			g.Completed++
			g.Queued.Add(r.started - r.arrived)
			g.Service.Add(r.done - r.started)
			g.Latency.Add(r.done - r.arrived)
			if r.done > r.deadline {
				g.Violations++
			}
			if r.hedge {
				g.HedgeWins++
			}
		})
		ctl.replace(now)
		if ctl.spec.Shed {
			// The shed estimate tracks full arrival-to-completion latency:
			// queue backlog, not just service time, is what dooms a
			// tight-deadline arrival during a fault window.
			lat := float64(r.done - r.arrived)
			if est := ctl.classEst[r.class]; est == 0 {
				ctl.classEst[r.class] = lat
			} else {
				ctl.classEst[r.class] = est + healthAlpha*(lat-est)
			}
		}
	}
	if j.copies == 0 && !j.done && !j.failed {
		ctl.retryOrFail(r, now)
	}
}

// retryOrFail re-issues a killed job with bounded-exponential backoff
// plus deterministic jitter, refreshing its per-attempt deadline — or
// marks it failed when retries, the tenant budget, or queue space run
// out. The re-issue enters its tenant queue (subject to the discipline
// like any queued request) but is not dispatchable before its backoff
// delay elapses.
func (ctl *Controller) retryOrFail(r *request, now int64) {
	sp := ctl.spec
	j := r.job
	canRetry := sp.Retries > 0 && j.retries < sp.Retries &&
		(sp.RetryBudget == 0 || ctl.tenantRetries[r.tenant] < sp.RetryBudget) &&
		len(ctl.queues[r.tenant]) < sp.QueueCap
	if !canRetry {
		j.failed = true
		ctl.account(r, func(g *core.ServeGroup) { g.Failed++ })
		ctl.replace(now)
		return
	}
	j.retries++
	j.hedged = false
	ctl.tenantRetries[r.tenant]++
	delay := sp.RetryBase << (j.retries - 1)
	if delay > sp.RetryMax {
		delay = sp.RetryMax
	}
	delay += int64(ctl.retryRNG.Intn(int(sp.RetryBase)))
	ctl.account(r, func(g *core.ServeGroup) { g.Retries++ })
	c := r.reissue()
	c.eligible = now + delay
	if cl := sp.Classes[r.class]; cl.Deadline > 0 {
		// Each attempt gets a fresh SLA window from its earliest possible
		// dispatch; the Latency histogram still measures from the job's
		// original arrival.
		c.deadline = c.eligible + cl.Deadline
	}
	ctl.queues[r.tenant] = append(ctl.queues[r.tenant], c)
}

// updateHealth folds this drive's evidence — mean collected service
// latency per worker station plus newly accumulated NAK retries of the
// station's CPUs and loss-timeout re-issues of its NC — into each
// station's EWMA score, then runs the circuit breaker: a station whose
// score exceeds BreakerPct percent of the fleet mean is ejected from
// placement for BreakerCool cycles, and re-enters at the fleet mean
// (a half-open fresh start) when the cooldown expires. Both counters
// count events as they happen (no lazy reconciliation), and a drive runs
// at the same serial points under every cycle loop, so all arithmetic
// runs in a fixed order over loop-invariant inputs and the breaker's
// decisions are identical under every loop.
func (ctl *Controller) updateHealth(now int64) {
	m := ctl.m
	pps := m.Geometry().ProcsPerStation
	for s := 0; s < ctl.workerStations; s++ {
		h := &ctl.health[s]
		cum := m.NCs[s].Stats.TimeoutReissues
		for _, c := range m.CPUs[s*pps : (s+1)*pps] {
			cum += c.Stats.NAKRetries
		}
		delta := cum - h.lastCum
		h.lastCum = cum
		if ctl.svcCnt[s] == 0 && delta == 0 {
			continue // no new evidence this drive
		}
		var obs float64
		if ctl.svcCnt[s] > 0 {
			obs = float64(ctl.svcSum[s]) / float64(ctl.svcCnt[s])
		}
		obs += float64(delta) * healthNAKPenalty
		if h.samples == 0 {
			h.score = obs
		} else {
			h.score += healthAlpha * (obs - h.score)
		}
		h.samples++
		ctl.svcSum[s], ctl.svcCnt[s] = 0, 0
	}
	var sum float64
	var n int
	for s := 0; s < ctl.workerStations; s++ {
		if ctl.health[s].samples >= healthMinSamples {
			sum += ctl.health[s].score
			n++
		}
	}
	if n == 0 || ctl.workerStations < 2 {
		return // no basis for comparison, or nowhere to reroute
	}
	mean := sum / float64(n)
	threshold := mean * float64(ctl.spec.BreakerPct) / 100
	for s := 0; s < ctl.workerStations; s++ {
		h := &ctl.health[s]
		if now < h.openUntil {
			continue
		}
		if h.openUntil > 0 {
			h.openUntil = 0
			h.score = mean
		}
		if h.samples >= healthMinSamples && h.score > threshold {
			h.openUntil = now + ctl.spec.BreakerCool
			ctl.ejections++
		}
	}
}

// tripped reports whether the breaker currently ejects the station.
func (ctl *Controller) tripped(station int, now int64) bool {
	return ctl.spec.BreakerPct > 0 && station < len(ctl.health) &&
		now < ctl.health[station].openUntil
}

// flightSweep maintains the in-flight copy list: compact out collected
// copies, cancel live siblings of jobs that already completed, and issue
// hedged second copies for primaries that have been running at least
// Hedge+jitter cycles. Hedges bypass the tenant queues: they go straight
// to the least-loaded breaker-eligible worker on a *different* station
// than the primary, so a frozen or degraded station cannot hold a
// request's only copy hostage.
func (ctl *Controller) flightSweep(now int64) {
	live := ctl.flight[:0]
	for _, r := range ctl.flight {
		if !r.collected {
			live = append(live, r)
		}
	}
	ctl.flight = live
	pps := ctl.m.Geometry().ProcsPerStation
	var issued []*request
	for _, r := range ctl.flight {
		j := r.job
		if j.done {
			r.cancel = true
			continue
		}
		if r.hedge || j.hedged || r.cancel || r.started < 0 ||
			now < r.started+ctl.spec.Hedge+j.hedgeJitter {
			continue
		}
		primaryStation := r.worker / pps
		w := ctl.leastLoaded(func(w int) bool {
			return w/pps != primaryStation && !ctl.tripped(w/pps, now)
		})
		if w < 0 {
			continue // no eligible second station this drive; try again
		}
		h := r.reissue()
		h.hedge = true
		j.hedged = true
		j.copies++
		ctl.account(r, func(g *core.ServeGroup) { g.Hedges++ })
		ctl.send(h, w)
		issued = append(issued, h)
	}
	ctl.flight = append(ctl.flight, issued...)
}

// send places one copy into worker w's mailbox.
func (ctl *Controller) send(r *request, w int) {
	r.worker = w
	b := ctl.boxes[w]
	b.load++
	b.in = append(b.in, r)
}

// dispatch drains tenant queues onto workers with headroom: the
// discipline picks the next request, the policy picks its worker. A
// retry whose backoff has not elapsed is invisible to the discipline
// until it becomes eligible.
func (ctl *Controller) dispatch(now int64) {
	for {
		tenant, idx := ctl.pick(now)
		if tenant < 0 {
			return // queues empty, or retries still backing off
		}
		r := ctl.queues[tenant][idx]
		w := ctl.place(r, now)
		if w < 0 {
			return // every worker at depth; try again next drive
		}
		ctl.queues[tenant] = append(ctl.queues[tenant][:idx], ctl.queues[tenant][idx+1:]...)
		r.job.copies++
		if ctl.spec.Hedge > 0 {
			ctl.flight = append(ctl.flight, r)
		}
		ctl.send(r, w)
	}
}

// pick applies the service discipline over all tenant queues, returning
// the chosen request's (tenant, index), or (-1, 0) when nothing is
// eligible. FIFO serves the globally oldest eligible request; EDF serves
// the earliest absolute deadline anywhere in the queues (deadline-free
// requests sort last), sequence as tiebreak.
func (ctl *Controller) pick(now int64) (tenant, idx int) {
	tenant = -1
	var bestSeq int64
	var bestDL int64
	for t, q := range ctl.queues {
		if len(q) == 0 {
			continue
		}
		switch ctl.spec.Discipline {
		case "edf":
			for i, r := range q {
				if r.eligible > now {
					continue
				}
				if tenant < 0 || r.deadline < bestDL || (r.deadline == bestDL && r.seq < bestSeq) {
					tenant, idx, bestDL, bestSeq = t, i, r.deadline, r.seq
				}
			}
		default: // fifo
			for i, r := range q {
				if r.eligible > now {
					continue
				}
				if tenant < 0 || r.seq < bestSeq {
					tenant, idx, bestSeq = t, i, r.seq
				}
				// Queues are append-ordered, so the first eligible entry
				// is this queue's oldest; no need to scan further.
				break
			}
		}
	}
	return tenant, idx
}

// place applies the placement policy, returning the worker for r or -1
// when every worker is at its dispatch depth.
//
//	static      round-robin over workers, ignoring the request (and the
//	            circuit breaker — static placement is the control arm)
//	locality    prefer workers on the station owning the tenant's span,
//	            least-loaded first; fall back to global least-loaded
//	least-load  global least-outstanding-load, lowest index as tiebreak
//
// With breaker= set, locality and least-load skip workers on ejected
// stations; if every worker station is ejected the breaker is ignored
// (degraded capacity beats none).
func (ctl *Controller) place(r *request, now int64) int {
	sp := ctl.spec
	pps := ctl.m.Geometry().ProcsPerStation
	avail := func(w int) bool { return !ctl.tripped(w/pps, now) }
	switch sp.Policy {
	case "locality":
		home := ctl.homes[r.tenant]
		if w := ctl.leastLoaded(func(w int) bool { return w/pps == home && avail(w) }); w >= 0 {
			return w
		}
		if w := ctl.leastLoaded(avail); w >= 0 {
			return w
		}
		if sp.BreakerPct > 0 {
			return ctl.leastLoaded(nil)
		}
		return -1
	case "least-load":
		if w := ctl.leastLoaded(avail); w >= 0 {
			return w
		}
		if sp.BreakerPct > 0 {
			return ctl.leastLoaded(nil)
		}
		return -1
	default: // static
		for i := 0; i < len(ctl.boxes); i++ {
			w := (ctl.rrCursor + i) % len(ctl.boxes)
			if ctl.boxes[w].load < sp.Depth {
				ctl.rrCursor = (w + 1) % len(ctl.boxes)
				return w
			}
		}
		return -1
	}
}

// leastLoaded returns the eligible worker with headroom and the smallest
// outstanding load (lowest index breaks ties), or -1.
func (ctl *Controller) leastLoaded(eligible func(int) bool) int {
	best := -1
	for w, b := range ctl.boxes {
		if eligible != nil && !eligible(w) {
			continue
		}
		if b.load >= ctl.spec.Depth {
			continue
		}
		if best < 0 || b.load < ctl.boxes[best].load {
			best = w
		}
	}
	return best
}
