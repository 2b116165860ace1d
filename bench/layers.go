package main

import (
	"sort"

	"numachine/internal/core"
)

// traced is what the traced run adds to a workload's result.
type traced struct {
	Passes      []pass    // the passes run with spans, sampler and profile on
	MultiP      *pass     // one untraced pass with every simulation at host.gomaxprocs
	Shares      cpuShares // bucketed CPU profile of Passes
	ProfileNote string    // why the shares are missing, if they are
}

// perLayer derives the per-layer ledger. S metrics are medians over the
// timed (untraced) passes; R metrics are exact aggregates of the first
// timed pass's reports: counts are summed over the pass's simulations,
// shares are recomputed from the summed counts, and utilisations and
// mean delays are cycle-weighted means. P and I metrics exist only when
// a traced run was made.
func perLayer(timed []pass, tr *traced, gomaxprocs int) map[string]stat {
	out := map[string]stat{}
	def := func(name string) metricDef {
		d, _ := defByName(perLayerDefs, name)
		return d
	}
	host := func(name string, f func(*simResult) float64) {
		out[name] = overPasses(timed, def(name), func(p *pass) float64 { return p.sum(f) })
	}
	p0 := &timed[0]
	exact := func(name string, v float64) { out[name] = exactStat(v, def(name).Unit) }
	sum := func(f func(*simResult) float64) float64 { return p0.sum(f) }
	cycles := p0.cycle()
	weighted := func(f func(*simResult) float64) float64 {
		return ratio(sum(func(s *simResult) float64 { return f(s) * float64(s.Cycles) }), cycles)
	}
	ofKind := func(k simKind, f func(*simResult) float64) func(*simResult) float64 {
		return func(s *simResult) float64 {
			if s.Spec.Kind != k {
				return 0
			}
			return f(s)
		}
	}
	// count sums a counter of the machine's report over the pass (probe9's
	// Table1 row has no report; its Results is zero).
	count := func(f func(*core.Results) int64) float64 {
		return sum(func(s *simResult) float64 { return float64(f(&s.Results)) })
	}

	// core, workloads, serve, experiments: spans around the public calls.
	host("core.new_s", func(s *simResult) float64 { return s.NewS })
	host("core.load_s", func(s *simResult) float64 { return s.LoadS })
	host("core.run_s", ofKind(kindKernel, func(s *simResult) float64 { return s.RunS }))
	host("core.results_s", func(s *simResult) float64 { return s.ResultsS })
	host("workloads.build_s", func(s *simResult) float64 { return s.BuildS })
	host("workloads.check_s", func(s *simResult) float64 { return s.CheckS })
	host("serve.parse_s", func(s *simResult) float64 { return s.ParseS })
	host("serve.new_s", func(s *simResult) float64 { return s.ServeNewS })
	host("serve.run_s", ofKind(kindServe, func(s *simResult) float64 { return s.RunS }))
	host("serve.report_s", func(s *simResult) float64 { return s.ReportS })
	host("experiments.table1_s", ofKind(kindTable1, func(s *simResult) float64 { return s.RunS }))
	host("runtime.mallocs", func(s *simResult) float64 { return float64(s.RunMallocs) })
	out["host.sys_mb"] = overPasses(timed, def("host.sys_mb"), func(p *pass) float64 {
		var mx uint64
		for _, s := range p.Sims {
			if s.SysBytes > mx {
				mx = s.SysBytes
			}
		}
		return float64(mx) / 1e6
	})
	exact("host.gomaxprocs", float64(gomaxprocs))

	// Simulated-time counters.
	exact("core.ff_cycle_share", ratio(sum(func(s *simResult) float64 { return float64(s.FastForwarded) }), cycles))
	exact("proc.refs", p0.refs())
	procRefs := count(func(r *core.Results) int64 { return r.Proc.Reads + r.Proc.Writes })
	exact("proc.l1_hit_share", ratio(count(func(r *core.Results) int64 { return r.Proc.L1Hits }), procRefs))
	exact("proc.l2_hit_share", ratio(count(func(r *core.Results) int64 { return r.Proc.L2Hits }), procRefs))
	exact("proc.miss_share", ratio(count(func(r *core.Results) int64 { return r.Proc.Misses }), procRefs))
	exact("proc.nak_retries", count(func(r *core.Results) int64 { return r.Proc.NAKRetries }))
	cpuCycles := sum(func(s *simResult) float64 { return float64(s.Results.Cycles) * float64(s.Spec.Procs) })
	exact("proc.stall_cycle_share", ratio(count(func(r *core.Results) int64 { return r.Proc.StallCycles }), cpuCycles))
	exact("proc.barrier_cycle_share", ratio(count(func(r *core.Results) int64 { return r.Proc.BarrierCycles }), cpuCycles))

	exact("bus.util", weighted(func(s *simResult) float64 { return s.Results.BusUtil }))
	memTx := count(func(r *core.Results) int64 { return r.Mem.Transactions })
	memNAK := count(func(r *core.Results) int64 { return r.Mem.NAKs })
	exact("memory.transactions", memTx)
	exact("memory.naks", memNAK)
	exact("memory.nak_share", ratio(memNAK, memTx))
	exact("memory.invalidates", count(func(r *core.Results) int64 { return r.Mem.InvalidatesSent }))
	exact("memory.interventions", count(func(r *core.Results) int64 { return r.Mem.Interventions }))

	ncReq := count(func(r *core.Results) int64 { return r.NC.Requests })
	exact("netcache.requests", ncReq)
	exact("netcache.hit_share", ratio(count(func(r *core.Results) int64 {
		return r.NC.HitsMigration + r.NC.HitsCaching + r.NC.LocalInterv
	}), ncReq))
	exact("netcache.combining_share", ratio(count(func(r *core.Results) int64 { return r.NC.Combined }), ncReq))
	exact("netcache.remote_fetches", count(func(r *core.Results) int64 { return r.NC.RemoteFetches }))
	exact("netcache.retries", count(func(r *core.Results) int64 { return r.NC.Retries }))
	exact("netcache.false_remote_share", ratio(count(func(r *core.Results) int64 { return r.NC.FalseRemotes }), ncReq))
	exact("netcache.ejections", count(func(r *core.Results) int64 { return r.NC.Ejections }))

	exact("ring.local_util", weighted(func(s *simResult) float64 { return s.Results.LocalRingUtil }))
	exact("ring.central_util", weighted(func(s *simResult) float64 { return s.Results.CentralRingUtil }))
	exact("ring.ri_send_delay_cycles", weighted(func(s *simResult) float64 { return s.Results.RISendDelay }))
	exact("ring.ri_down_sink_cycles", weighted(func(s *simResult) float64 { return s.Results.RIDownSink }))
	exact("ring.ri_down_nonsink_cycles", weighted(func(s *simResult) float64 { return s.Results.RIDownNonsink }))
	exact("ring.iri_up_delay_cycles", weighted(func(s *simResult) float64 { return s.Results.IRIUpDelay }))

	exact("fault.drops", count(func(r *core.Results) int64 { return r.Fault.Drops }))
	exact("fault.dups", count(func(r *core.Results) int64 { return r.Fault.Dups }))
	exact("fault.timeout_reissues", count(func(r *core.Results) int64 { return r.Fault.TimeoutReissues }))
	exact("fault.ring_stall_cycles", count(func(r *core.Results) int64 { return r.Fault.RingFaultStalls }))
	exact("fault.mem_down_cycles", count(func(r *core.Results) int64 { return r.Fault.MemDownCycles }))

	serveLayer(p0, exact)
	for _, s := range p0.counted() {
		if s.Spec.Kind == kindTable1 {
			_, mean := table1Errors(s)
			exact("experiments.table1_mean_err_pct", mean)
		}
	}

	// par64: each parallel simulation is followed by its scheduled twin.
	if hasReference(p0) {
		out["core.parallel_speedup"] = overPasses(timed, def("core.parallel_speedup"), func(p *pass) float64 {
			var par, ref float64
			for i := range p.Sims {
				if p.Sims[i].Spec.Reference {
					ref += p.Sims[i].RunS
				} else {
					par += p.Sims[i].RunS
				}
			}
			return ratio(ref, par)
		})
	}

	if tr != nil {
		tracedLayer(out, timed, tr)
	}
	return out
}

func hasReference(p *pass) bool {
	for i := range p.Sims {
		if p.Sims[i].Spec.Reference {
			return true
		}
	}
	return false
}

// serveLayer reports the serving counters: totals over every serving
// simulation of the pass (rate probes included), the queue and service
// tails of the primary scenario, and the per-rate open-loop figures.
func serveLayer(p0 *pass, exact func(string, float64)) {
	if p0.primaryServe() == nil {
		return
	}
	var arrived, completed, dropped, shed, failed, timeouts, retries, hedges, ejections, violations int64
	for i := range p0.Sims {
		s := &p0.Sims[i]
		sv := s.Results.Serve
		if sv == nil {
			continue
		}
		t := sv.Total
		arrived += t.Arrived
		completed += t.Completed
		dropped += t.Dropped
		shed += t.Shed
		failed += t.Failed
		timeouts += t.Timeouts
		retries += t.Retries
		hedges += t.Hedges
		violations += t.Violations
		if sv.Resilience != nil {
			ejections += sv.Resilience.Ejections
		}
		if l := s.Spec.ID; s.Spec.OpenRate > 0 {
			exact("serve."+l+".lat_p50_cycles", float64(t.Latency.Percentile(0.5)))
			exact("serve."+l+".lat_p99_cycles", float64(t.Latency.Percentile(0.99)))
			exact("serve."+l+".drop_share", ratio(float64(t.Dropped+t.Shed+t.Failed), float64(t.Arrived)))
		}
	}
	exact("serve.arrived", float64(arrived))
	exact("serve.completed", float64(completed))
	exact("serve.dropped", float64(dropped))
	exact("serve.shed", float64(shed))
	exact("serve.failed", float64(failed))
	exact("serve.timeouts", float64(timeouts))
	exact("serve.retries", float64(retries))
	exact("serve.hedges", float64(hedges))
	exact("serve.ejections", float64(ejections))
	exact("serve.sla_violation_share", ratio(float64(violations), float64(completed)))
	primary := p0.primaryServe()
	exact("serve.queued_p99_cycles", float64(primary.Total.Queued.Percentile(0.99)))
	exact("serve.service_p99_cycles", float64(primary.Total.Service.Percentile(0.99)))
}

// tracedLayer adds what only the traced run can tell: the sampler's
// interval distribution, the CPU shares, the tracing overhead and what
// the same pass costs when every simulation gets host.gomaxprocs Ps.
func tracedLayer(out map[string]stat, timed []pass, tr *traced) {
	var intervals []float64
	for i := range tr.Passes {
		for _, s := range tr.Passes[i].counted() {
			intervals = append(intervals, s.Intervals...)
		}
	}
	sort.Float64s(intervals)
	out["core.interval_n"] = exactStat(float64(len(intervals)), "count")
	if len(intervals) > 0 {
		// The samples are intervals, not passes: the percentile itself
		// is the figure, so Best repeats it.
		iv := summarize(intervals, "ns/kcycle", "lower")
		iv.Best = iv.Value
		out["core.interval_ns_per_kcycle_p50"] = iv
		// p99 is reported only with at least ten samples beyond it.
		if supported(len(intervals), 0.99) {
			iv.Value = quantile(intervals, 0.99)
			iv.Best = iv.Value
			out["core.interval_ns_per_kcycle_p99"] = iv
		}
	}

	// Ratios of run seconds, from the medians and from the best passes.
	untraced := overPasses(timed, runSeconds, (*pass).runS)
	tracedRun := overPasses(tr.Passes, runSeconds, (*pass).runS)
	out["trace.overhead_pct"] = stat{
		Value: 100 * (ratio(tracedRun.Value, untraced.Value) - 1),
		Q1:    100 * (ratio(tracedRun.Q1, untraced.Value) - 1),
		Q3:    100 * (ratio(tracedRun.Q3, untraced.Value) - 1),
		Best:  100 * (ratio(tracedRun.Best, untraced.Best) - 1),
		N:     tracedRun.N, Unit: "%",
	}
	if tr.MultiP != nil {
		// One multi-P pass against the best pass under the policy: both
		// ends of the ratio are then as free of interference as one run
		// can make them.
		out["core.multi_p_penalty"] = exactStat(ratio(tr.MultiP.runS(), untraced.Best), "x")
	}
	out["trace.profile_samples"] = exactStat(float64(tr.Shares.Samples), "count")
	if tr.Shares.Samples >= minProfileSamples {
		for _, b := range cpuBuckets {
			out[cpuShareName(b)] = exactStat(tr.Shares.Share[b], "%")
		}
	}
}
