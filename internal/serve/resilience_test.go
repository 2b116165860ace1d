package serve

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/sim"
)

// The canonical degrade/freeze chaos schedule the acceptance criteria
// pin: periodic memory freezes and ring degradation plus packet loss
// with a short recovery timeout, over an open-loop mix that includes a
// tight-deadline class for the shedder to protect.
const (
	chaosFaultSpec = "freeze-mem=3000:500,degrade-ring=5000:300,drop=0.03,timeout=1500"
	chaosFaultSeed = 21
	chaosServeSeed = 42

	chaosBaseSpec = "open=4,duration=20000,procs=8,tenants=3,span=256,qcap=8," +
		"discipline=edf,policy=locality," +
		"class=urgent:2:6:10:25:1000,class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0"
	chaosResilience = "kill=2,retries=2,backoff=200:1600,retry-budget=24,hedge=1500,breaker=180:2500,shed=on"
	chaosResilSpec  = chaosBaseSpec + "," + chaosResilience
)

// faultConfig is testConfig with the chaos fault schedule injected (and
// the adaptive NAK backoff it implies).
func faultConfig(fastHits bool) core.Config {
	cfg := testConfig(fastHits)
	cfg.FaultSpec = chaosFaultSpec
	cfg.FaultSeed = chaosFaultSeed
	cfg.Params.RetryBackoff = true
	cfg.Params.RetryJitterSeed = chaosFaultSeed
	return cfg
}

// TestServeZeroResilienceGolden pins the compatibility half of the
// acceptance criteria: a spec without resilience clauses renders the
// byte-exact report the pre-resilience serving layer produced (the
// golden file was captured before this layer existed).
func TestServeZeroResilienceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_zero_resilience.txt")
	if err != nil {
		t.Fatal(err)
	}
	report, res := runServe(t, testConfig(true), serveSpecs[1], 42)
	if report != string(want) {
		t.Errorf("zero-resilience report drifted from the pre-resilience golden:\n--- golden\n%s--- now\n%s",
			want, report)
	}
	if res.Serve.Resilience != nil {
		t.Error("zero-resilience run carries a Resilience section")
	}
	if strings.Contains(res.Serve.Spec, "kill=") {
		t.Errorf("zero-resilience canonical spec mentions resilience clauses: %q", res.Serve.Spec)
	}
}

// TestServeResilienceGoodput is the acceptance scenario: under the
// canonical degrade/freeze schedule the resilient arm must fire every
// mechanism (timeouts, retries, hedges, sheds, breaker ejections) and
// deliver strictly more SLA-met completions per kilocycle than the
// no-resilience baseline under identical faults.
func TestServeResilienceGoodput(t *testing.T) {
	_, base := runServe(t, faultConfig(true), chaosBaseSpec, chaosServeSeed)
	_, resil := runServe(t, faultConfig(true), chaosResilSpec, chaosServeSeed)
	b, r := base.Serve, resil.Serve
	if b.Resilience != nil {
		t.Error("baseline arm unexpectedly carries a Resilience section")
	}
	if r.Resilience == nil {
		t.Fatal("resilient arm missing its Resilience section")
	}
	tot := &r.Total
	if tot.Timeouts == 0 || tot.Retries == 0 || tot.Shed == 0 {
		t.Errorf("acceptance counters silent: timeouts=%d retries=%d shed=%d",
			tot.Timeouts, tot.Retries, tot.Shed)
	}
	if tot.Hedges == 0 || r.Resilience.Ejections == 0 {
		t.Errorf("hedging/breaker silent: hedges=%d ejections=%d", tot.Hedges, r.Resilience.Ejections)
	}
	if bg, rg := b.Total.Goodput(), tot.Goodput(); rg <= bg {
		t.Errorf("goodput did not beat the baseline: resilient %d SLA-met vs baseline %d", rg, bg)
	}
	if bg, rg := b.GoodputPerKCycle(), r.GoodputPerKCycle(); rg <= bg {
		t.Errorf("goodput/kcycle did not beat the baseline: %.3f vs %.3f", rg, bg)
	}
}

// TestServeResilienceConservation checks the terminal-state ledger:
// every arrival resolves as exactly one of completed, dropped, failed or
// shed, in the total and in every class/tenant breakdown.
func TestServeResilienceConservation(t *testing.T) {
	_, res := runServe(t, faultConfig(true), chaosResilSpec, chaosServeSeed)
	check := func(name string, g *core.ServeGroup) {
		if g.Arrived != g.Completed+g.Dropped+g.Failed+g.Shed {
			t.Errorf("%s: arrived=%d != completed=%d + dropped=%d + failed=%d + shed=%d",
				name, g.Arrived, g.Completed, g.Dropped, g.Failed, g.Shed)
		}
		if g.HedgeWins > g.Hedges {
			t.Errorf("%s: %d hedge wins exceed %d hedges", name, g.HedgeWins, g.Hedges)
		}
	}
	s := res.Serve
	check("total", &s.Total)
	for i := range s.Classes {
		check(s.Classes[i].Name, &s.Classes[i])
	}
	for i := range s.Tenants {
		check(s.Tenants[i].Name, &s.Tenants[i])
	}
}

// ---- dispatcher unit tests (no machine run) ----

// TestEDFTieBreakBySeq pins the determinism of equal-deadline ordering:
// EDF must fall back to arrival sequence, so ties resolve identically
// under every loop (the cross-loop half is covered by the equivalence
// suites, whose scenarios include deadline collisions).
func TestEDFTieBreakBySeq(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=2,discipline=edf")
	enqueue(ctl, 0, 9, 500)
	enqueue(ctl, 1, 4, 500)
	enqueue(ctl, 1, 6, 500)
	wantOrder := []int64{4, 6, 9}
	for _, want := range wantOrder {
		tenant, idx := ctl.pick(0)
		if tenant < 0 {
			t.Fatalf("pick found nothing with seq %d still queued", want)
		}
		r := ctl.queues[tenant][idx]
		if r.seq != want {
			t.Fatalf("equal-deadline pick order: got seq %d, want %d", r.seq, want)
		}
		ctl.queues[tenant] = append(ctl.queues[tenant][:idx], ctl.queues[tenant][idx+1:]...)
	}
}

// TestPickSkipsBackoff: a retry whose backoff has not elapsed is
// invisible to both disciplines until its eligible cycle.
func TestPickSkipsBackoff(t *testing.T) {
	for _, disc := range []string{"fifo", "edf"} {
		ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=1,discipline="+disc)
		r := enqueue(ctl, 0, 1, 500)
		r.eligible = 2000
		if tenant, _ := ctl.pick(1999); tenant != -1 {
			t.Errorf("%s: picked a request still backing off", disc)
		}
		if tenant, _ := ctl.pick(2000); tenant != 0 {
			t.Errorf("%s: did not pick the request once eligible", disc)
		}
	}
}

// TestRetryBackoffBounds: successive retries back off exponentially from
// the base, cap at the max, add jitter strictly below the base, refresh
// the per-attempt deadline, and finally fail when the budget is spent.
func TestRetryBackoffBounds(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=1,kill=2,retries=3,backoff=100:300")
	r := &request{tenant: 0, class: 0, deadline: 500, job: &job{}, started: -1, worker: -1}
	wantMin := []int64{100, 200, 300} // bounded exponential: 100, 200, min(400,300)
	for i, base := range wantMin {
		ctl.retryOrFail(r, 1000)
		q := ctl.queues[0]
		if len(q) != i+1 {
			t.Fatalf("retry %d: queue has %d entries, want %d", i+1, len(q), i+1)
		}
		c := q[i]
		delay := c.eligible - 1000
		if delay < base || delay >= base+100 {
			t.Errorf("retry %d: delay %d outside [%d, %d)", i+1, delay, base, base+100)
		}
		wantDL := c.eligible + ctl.spec.Classes[0].Deadline
		if c.deadline != wantDL {
			t.Errorf("retry %d: deadline %d, want refreshed %d", i+1, c.deadline, wantDL)
		}
		if c.seq != r.seq || c.job != r.job {
			t.Errorf("retry %d: copy does not share the job identity", i+1)
		}
	}
	if ctl.total.Retries != 3 || ctl.total.Failed != 0 {
		t.Fatalf("after 3 retries: Retries=%d Failed=%d", ctl.total.Retries, ctl.total.Failed)
	}
	ctl.retryOrFail(r, 1000) // budget exhausted
	if !r.job.failed || ctl.total.Failed != 1 {
		t.Errorf("exhausted job not failed: failed=%v counter=%d", r.job.failed, ctl.total.Failed)
	}
}

// TestRetryBudgetPerTenant: the tenant budget caps re-issues even with
// per-job retries remaining.
func TestRetryBudgetPerTenant(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=1,kill=2,retries=5,retry-budget=2")
	a := &request{tenant: 0, class: 0, job: &job{}, started: -1, worker: -1}
	b := &request{tenant: 0, class: 0, seq: 1, job: &job{}, started: -1, worker: -1}
	ctl.retryOrFail(a, 100)
	ctl.retryOrFail(b, 100)
	if ctl.total.Retries != 2 {
		t.Fatalf("budget of 2: %d retries granted", ctl.total.Retries)
	}
	c := &request{tenant: 0, class: 0, seq: 2, job: &job{}, started: -1, worker: -1}
	ctl.retryOrFail(c, 100)
	if ctl.total.Retries != 2 || ctl.total.Failed != 1 {
		t.Errorf("budget exceeded: Retries=%d Failed=%d, want 2/1", ctl.total.Retries, ctl.total.Failed)
	}
}

// TestBreakerEjectsAndRecovers: a station whose health score exceeds the
// threshold is ejected from least-load placement for the cooldown, then
// re-enters at the fleet mean (half-open) once it expires.
func TestBreakerEjectsAndRecovers(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=8,tenants=1,policy=least-load,breaker=150:1000")
	for s := range ctl.health {
		ctl.health[s].samples = healthMinSamples
		ctl.health[s].score = 100
	}
	ctl.health[0].score = 1000
	ctl.updateHealth(5000)
	if ctl.ejections != 1 || !ctl.tripped(0, 5500) {
		t.Fatalf("unhealthy station not ejected: ejections=%d tripped=%v", ctl.ejections, ctl.tripped(0, 5500))
	}
	if w := ctl.place(&request{}, 5500); w/2 == 0 {
		t.Errorf("least-load placed worker %d on the ejected station", w)
	}
	ctl.updateHealth(6100) // cooldown expired
	if ctl.tripped(0, 6100) {
		t.Error("station still tripped after the cooldown")
	}
	mean := (1000.0 + 3*100.0) / 4
	if ctl.health[0].score != mean {
		t.Errorf("half-open reset score to %.1f, want the fleet mean %.1f", ctl.health[0].score, mean)
	}
}

// TestBreakerFallbackWhenAllOpen: with every worker station ejected,
// placement ignores the breaker rather than stalling dispatch.
func TestBreakerFallbackWhenAllOpen(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=8,tenants=1,policy=least-load,breaker=150:1000")
	for s := range ctl.health {
		ctl.health[s].openUntil = 10_000
	}
	if w := ctl.place(&request{}, 5000); w != 0 {
		t.Errorf("all stations open: placed on %d, want 0 (breaker ignored)", w)
	}
}

// TestShedsDoomedAtAdmission: with shed=on, an arrival whose deadline is
// unreachable by the class latency estimate is dropped at enqueue;
// deadline-free arrivals are never shed.
func TestShedsDoomedAtAdmission(t *testing.T) {
	ctl := newIdleController(t, "open=1,duration=1000,procs=4,tenants=1,shed=on")
	ctl.classEst[0] = 5000
	doomed := &request{tenant: 0, class: 0, deadline: 1500, job: &job{}, started: -1, worker: -1}
	free := &request{tenant: 0, class: 0, seq: 1, deadline: sim.Never, job: &job{}, started: -1, worker: -1}
	ctl.arriving = append(ctl.arriving, doomed, free)
	ctl.admit(1000)
	if ctl.total.Shed != 1 || ctl.total.Arrived != 2 {
		t.Errorf("shed accounting: Shed=%d Arrived=%d, want 1/2", ctl.total.Shed, ctl.total.Arrived)
	}
	if len(ctl.queues[0]) != 1 || ctl.queues[0][0] != free {
		t.Errorf("queue holds %d entries, want only the deadline-free request", len(ctl.queues[0]))
	}
}

// TestResilienceSpecRoundTrip: the canonical String of a fully resilient
// spec re-parses to the identical spec (the fuzz target hammers this
// property; this pins one readable example).
func TestResilienceSpecRoundTrip(t *testing.T) {
	sp, err := ParseSpec(chaosResilSpec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", sp.String(), err)
	}
	if !reflect.DeepEqual(sp, again) {
		t.Errorf("round trip drifted:\n%+v\n%+v", sp, again)
	}
	if !sp.resilient() {
		t.Error("chaos spec not recognized as resilient")
	}
	for _, clause := range []string{"kill=2", "retries=2", "backoff=200:1600",
		"retry-budget=24", "hedge=1500", "breaker=180:2500", "shed=on"} {
		if !strings.Contains(sp.String(), clause) {
			t.Errorf("canonical form missing %q: %s", clause, sp.String())
		}
	}
}

// TestResilienceSpecErrors: clause dependencies and ranges are rejected
// with errors, not silently accepted.
func TestResilienceSpecErrors(t *testing.T) {
	bad := []string{
		"open=1,duration=100,retries=2",                     // retries need kill
		"open=1,duration=100,kill=2,backoff=10:5",           // backoff needs retries; cap < base
		"open=1,duration=100,kill=2,retries=1,backoff=10:5", // cap < base
		"open=1,duration=100,retry-budget=5",                // budget needs retries
		"open=1,duration=100,hedge=100",                     // hedge needs kill
		"open=1,duration=100,breaker=50:100",                // threshold < 100%
		"open=1,duration=100,breaker=200",                   // missing cooldown
		"open=1,duration=100,shed=maybe",
		"open=1,duration=100,kill=0",
		"open=1,duration=100,kill=2,hedge=-5",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", s)
		}
	}
}
