package main

import (
	"math"

	"numachine/internal/core"
)

// metricDef names one metric. Bound is the share of the base median by
// which the metric may worsen before `bench compare` calls it regressed;
// Slack is an absolute allowance on top (allocs_per_ref sits near zero,
// where a relative bound alone would flag noise). Exact metrics are
// simulated-time figures or counts that must repeat bit for bit between
// two runs of the same code and seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Slack  float64
	Exact  bool
}

// endToEndDefs are the fourteen end-to-end metrics; each workload
// reports those that apply to it.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "refs_per_s", Unit: "refs/s", Better: "higher", Bound: 0.10},
	{Name: "ns_per_sim_cycle", Unit: "ns/cycle", Better: "lower", Bound: 0.10},
	{Name: "req_per_wall_s", Unit: "req/s", Better: "higher", Bound: 0.10},
	{Name: "allocs_per_ref", Unit: "allocs/ref", Better: "lower", Bound: 0.10, Slack: 0.005},
	{Name: "setup_alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "sim_cycles", Unit: "cycles", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "req_per_kcycle", Unit: "req/kcycle", Better: "higher", Bound: 0.01, Exact: true},
	{Name: "goodput_per_kcycle", Unit: "req/kcycle", Better: "higher", Bound: 0.01, Exact: true},
	{Name: "lat_p50_cycles", Unit: "cycles", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "lat_p99_cycles", Unit: "cycles", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "max_rate_under_sla", Unit: "req/kcycle", Better: "higher", Bound: 0, Exact: true},
	{Name: "table1_max_err_pct", Unit: "%", Better: "lower", Bound: 0, Exact: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0, Exact: true},
}

// perLayerDefs are the per-layer metrics in reporting order. They carry
// no bound: they explain a movement of an end-to-end metric, they do not
// gate. The CPU shares and drill figures are appended in init.
var perLayerDefs = []metricDef{
	{Name: "core.new_s", Unit: "s", Better: "lower"},
	{Name: "core.load_s", Unit: "s", Better: "lower"},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.results_s", Unit: "s", Better: "lower"},
	{Name: "core.ff_cycle_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "core.interval_ns_per_kcycle_p50", Unit: "ns/kcycle", Better: "lower"},
	{Name: "core.interval_ns_per_kcycle_p99", Unit: "ns/kcycle", Better: "lower"},
	{Name: "core.interval_n", Unit: "count", Better: "higher"},
	{Name: "core.parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "core.multi_p_penalty", Unit: "x", Better: "lower"},
	{Name: "proc.refs", Unit: "count", Better: "higher", Exact: true},
	{Name: "proc.l1_hit_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "proc.l2_hit_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "proc.miss_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "proc.nak_retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "proc.stall_cycle_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "proc.barrier_cycle_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "runtime.mallocs", Unit: "count", Better: "lower"},
	{Name: "host.sys_mb", Unit: "MB", Better: "lower"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Exact: true},
	{Name: "bus.util", Unit: "share", Better: "lower", Exact: true},
	{Name: "memory.transactions", Unit: "count", Better: "lower", Exact: true},
	{Name: "memory.naks", Unit: "count", Better: "lower", Exact: true},
	{Name: "memory.nak_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "memory.invalidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "memory.interventions", Unit: "count", Better: "lower", Exact: true},
	{Name: "netcache.requests", Unit: "count", Better: "lower", Exact: true},
	{Name: "netcache.hit_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "netcache.combining_share", Unit: "share", Better: "higher", Exact: true},
	{Name: "netcache.remote_fetches", Unit: "count", Better: "lower", Exact: true},
	{Name: "netcache.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "netcache.false_remote_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "netcache.ejections", Unit: "count", Better: "lower", Exact: true},
	{Name: "ring.local_util", Unit: "share", Better: "lower", Exact: true},
	{Name: "ring.central_util", Unit: "share", Better: "lower", Exact: true},
	{Name: "ring.ri_send_delay_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "ring.ri_down_sink_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "ring.ri_down_nonsink_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "ring.iri_up_delay_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "workloads.build_s", Unit: "s", Better: "lower"},
	{Name: "workloads.check_s", Unit: "s", Better: "lower"},
	{Name: "serve.parse_s", Unit: "s", Better: "lower"},
	{Name: "serve.new_s", Unit: "s", Better: "lower"},
	{Name: "serve.run_s", Unit: "s", Better: "lower"},
	{Name: "serve.report_s", Unit: "s", Better: "lower"},
	{Name: "serve.arrived", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.completed", Unit: "count", Better: "higher", Exact: true},
	{Name: "serve.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.shed", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.failed", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.timeouts", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.retries", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.hedges", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.ejections", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.sla_violation_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "serve.queued_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.service_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open1.lat_p50_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open1.lat_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open1.drop_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "serve.open2.lat_p50_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open2.lat_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open2.drop_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "serve.open3.lat_p50_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open3.lat_p99_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "serve.open3.drop_share", Unit: "share", Better: "lower", Exact: true},
	{Name: "fault.drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "fault.dups", Unit: "count", Better: "lower", Exact: true},
	{Name: "fault.timeout_reissues", Unit: "count", Better: "lower", Exact: true},
	{Name: "fault.ring_stall_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "fault.mem_down_cycles", Unit: "cycles", Better: "lower", Exact: true},
	{Name: "experiments.table1_s", Unit: "s", Better: "lower"},
	{Name: "experiments.table1_mean_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.profile_samples", Unit: "count", Better: "higher"},
}

func init() {
	for _, b := range cpuBuckets {
		perLayerDefs = append(perLayerDefs, metricDef{Name: cpuShareName(b), Unit: "%", Better: "lower"})
	}
}

// cpuShareName turns a CPU bucket into its metric name: "core" gives
// core.cpu_share, "runtime.gc" gives runtime.gc_cpu_share.
func cpuShareName(bucket string) string {
	if bucket == "runtime.handoff" || bucket == "runtime.gc" || bucket == "runtime.other" {
		return bucket + "_cpu_share"
	}
	return bucket + ".cpu_share"
}

func defByName(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// pass is one execution of a workload's simulation list.
type pass struct {
	Sims  []simResult
	WallS float64 // whole pass, including the harness's own work
}

// counted are the simulations behind the end-to-end sums and the
// per-layer ledger. Two kinds stand aside: par64's scheduled-loop
// references, and serve's open-loop rate probes. The probes are there for
// their simulated-time figures (latency at fixed rates, the highest rate
// within the SLA); rate 3 sits at the knee of the machine's capacity and
// tips into overload for about one seed in six, so its host cost is
// bimodal across seeds and would be most of the workload's spread.
func (p *pass) counted() []*simResult {
	var out []*simResult
	for i := range p.Sims {
		if spec := p.Sims[i].Spec; !spec.Reference && spec.OpenRate == 0 {
			out = append(out, &p.Sims[i])
		}
	}
	return out
}

func (p *pass) sum(f func(*simResult) float64) float64 {
	var t float64
	for _, s := range p.counted() {
		t += f(s)
	}
	return t
}

func (p *pass) runS() float64  { return p.sum(func(s *simResult) float64 { return s.RunS }) }
func (p *pass) refs() float64  { return p.sum(func(s *simResult) float64 { return float64(s.Refs) }) }
func (p *pass) cycle() float64 { return p.sum(func(s *simResult) float64 { return float64(s.Cycles) }) }

// completed is the pass's completed serving requests.
func (p *pass) completed() float64 {
	return p.sum(func(s *simResult) float64 {
		if sv := s.Results.Serve; sv != nil {
			return float64(sv.Total.Completed)
		}
		return 0
	})
}

// primaryServe is the report behind the serving end-to-end metrics: the
// closed-loop scenario (serve) or the chaos scenario (serve-chaos); nil
// for the kernel workloads.
func (p *pass) primaryServe() *core.ServeResults {
	for _, s := range p.counted() {
		if s.Spec.Kind == kindServe {
			return s.Results.Serve
		}
	}
	return nil
}

// ops counts a simulation's operations for failed_share: a kernel or
// probe simulation is one operation that fails as a whole; a serving
// simulation attempts its arrivals and fails those it dropped, shed or
// abandoned — or all of them, when the simulation itself failed a check.
func (s *simResult) ops() (attempted, failed int64) {
	sv := s.Results.Serve
	if s.Spec.Kind != kindServe || sv == nil || sv.Total.Arrived == 0 {
		if s.Err != "" {
			return 1, 1
		}
		return 1, 0
	}
	t := sv.Total
	if s.Err != "" {
		return t.Arrived, t.Arrived
	}
	return t.Arrived, t.Dropped + t.Failed + t.Shed
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overPasses summarizes a host-time metric over the passes.
func overPasses(passes []pass, d metricDef, f func(*pass) float64) stat {
	samples := make([]float64, len(passes))
	for i := range passes {
		samples[i] = f(&passes[i])
	}
	st := summarize(samples, d.Unit, d.Better)
	st.Samples = samples
	return st
}

// runSeconds is the pass's total run time as an unnamed metric.
var runSeconds = metricDef{Unit: "s", Better: "lower"}

// endToEnd derives the workload's end-to-end metrics. Host-time metrics
// are medians over the timed passes; exact metrics are read off the
// first timed pass (the determinism guard has already established that
// every pass reports the same simulated statistics).
func endToEnd(timed []pass, all []pass) map[string]stat {
	out := map[string]stat{}
	p0 := &timed[0]
	host := func(name string, f func(*pass) float64) {
		d, _ := defByName(endToEndDefs, name)
		out[name] = overPasses(timed, d, f)
	}
	exact := func(name string, v float64) {
		d, _ := defByName(endToEndDefs, name)
		out[name] = exactStat(v, d.Unit)
	}
	host("setup_s", func(p *pass) float64 { return p.sum((*simResult).setupS) })
	host("refs_per_s", func(p *pass) float64 { return ratio(p.refs(), p.runS()) })
	host("ns_per_sim_cycle", func(p *pass) float64 { return ratio(p.runS()*1e9, p.cycle()) })
	host("allocs_per_ref", func(p *pass) float64 {
		return ratio(p.sum(func(s *simResult) float64 { return float64(s.RunMallocs) }), p.refs())
	})
	host("setup_alloc_mb", func(p *pass) float64 {
		return p.sum(func(s *simResult) float64 { return float64(s.SetupAllocBytes) }) / 1e6
	})
	exact("sim_cycles", p0.cycle())

	if sv := p0.primaryServe(); sv != nil {
		host("req_per_wall_s", func(p *pass) float64 { return ratio(p.completed(), p.runS()) })
		exact("req_per_kcycle", sv.Throughput())
		exact("goodput_per_kcycle", sv.GoodputPerKCycle())
		exact("lat_p50_cycles", float64(sv.Total.Latency.Percentile(0.5)))
		exact("lat_p99_cycles", float64(sv.Total.Latency.Percentile(0.99)))
	}
	if rate, any := maxRateUnderSLA(p0); any {
		exact("max_rate_under_sla", rate)
	}
	for _, s := range p0.counted() {
		if s.Spec.Kind == kindTable1 {
			maxErr, _ := table1Errors(s)
			exact("table1_max_err_pct", maxErr)
		}
	}
	var attempted, failed int64
	for i := range all {
		for j := range all[i].Sims {
			a, f := all[i].Sims[j].ops()
			attempted, failed = attempted+a, failed+f
		}
	}
	exact("failed_share", ratio(float64(failed), float64(attempted)))
	return out
}

// maxRateUnderSLA is the highest open-loop rate that refused nothing and
// kept the interactive class's p99 latency within that class's deadline
// (the batch class carries no deadline, and at 64 touches of 80 think
// cycles cannot meet the interactive one by construction). any is false
// when the pass holds no open-loop simulation.
func maxRateUnderSLA(p *pass) (rate float64, any bool) {
	for i := range p.Sims {
		s := &p.Sims[i]
		sv := s.Results.Serve
		if s.Spec.OpenRate == 0 || sv == nil {
			continue
		}
		any = true
		t := sv.Total
		refused := t.Dropped + t.Shed + t.Failed
		if s.Err != "" || refused != 0 || len(sv.Classes) == 0 {
			continue
		}
		if p99 := sv.Classes[0].Latency.Percentile(0.99); p99 <= interactiveSLA {
			rate = math.Max(rate, float64(s.Spec.OpenRate))
		}
	}
	return rate, any
}

// table1Errors returns the max and mean over the nine probes of
// |measured - paper| / paper, in percent.
func table1Errors(s *simResult) (maxErr, meanErr float64) {
	for _, r := range s.Rows {
		e := 100 * math.Abs(float64(r.Cycles-r.PaperCycle)) / float64(r.PaperCycle)
		maxErr = math.Max(maxErr, e)
		meanErr += e
	}
	if len(s.Rows) > 0 {
		meanErr /= float64(len(s.Rows))
	}
	return maxErr, meanErr
}
