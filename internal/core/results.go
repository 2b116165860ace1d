package core

import (
	"fmt"
	"io"
	"reflect"

	"numachine/internal/bus"
	"numachine/internal/hist"
	"numachine/internal/memory"
	"numachine/internal/monitor"
	"numachine/internal/netcache"
	"numachine/internal/proc"
	"numachine/internal/ring"
)

// Results aggregates the machine's monitoring hardware into the metrics
// the paper reports: communication path utilizations (Figure 17), ring
// interface delays (Figure 18), network cache effectiveness (Figures 15
// and 16, Table 3) and overall traffic counts.
type Results struct {
	Cycles int64

	// Figure 17: average utilization of communication paths.
	BusUtil         float64 // averaged over stations
	LocalRingUtil   float64 // averaged over local rings
	CentralRingUtil float64

	// Figure 18a: local ring interface delays (cycles).
	RISendDelay   float64
	RIDownSink    float64
	RIDownNonsink float64
	// Figure 18b: central ring (inter-ring interface) upward-path delay.
	IRIUpDelay   float64
	IRIDownDelay float64

	NC    netcache.Stats
	Mem   memory.Stats
	Proc  ProcResults
	Fault FaultResults

	// Serve is the serving-layer section, present only when a request
	// front end drove this run (see internal/serve and SetServeReport).
	Serve *ServeResults `json:",omitempty"`
}

// ServeGroup aggregates one slice of a serving run — a request class or a
// tenant. Latency histograms are in CPU cycles.
type ServeGroup struct {
	Name       string
	Arrived    int64
	Dropped    int64 // rejected at admission (tenant queue full)
	Completed  int64
	Violations int64 // completed after their SLA deadline

	// Resilience counters; all zero (and omitted from JSON) unless the
	// spec enables the corresponding mechanism.
	Timeouts  int64 `json:",omitempty"` // attempts killed at a Ctx.Cycle probe past their deadline
	Retries   int64 `json:",omitempty"` // re-issues after a deadline kill
	Failed    int64 `json:",omitempty"` // jobs abandoned after exhausting retries/budget
	Hedges    int64 `json:",omitempty"` // hedged second copies issued
	HedgeWins int64 `json:",omitempty"` // completions won by the hedged copy
	Shed      int64 `json:",omitempty"` // dropped at admission as already doomed

	Queued  hist.Hist // admission to dispatch
	Service hist.Hist // dispatch to completion
	Latency hist.Hist // arrival to completion (the user-visible number)
}

// Goodput is the count of completions that met their SLA deadline — the
// serving-quality numerator (completions minus violations).
func (g *ServeGroup) Goodput() int64 { return g.Completed - g.Violations }

// ViolationRate is the fraction of completed requests that missed their
// SLA deadline.
func (g *ServeGroup) ViolationRate() float64 {
	if g.Completed == 0 {
		return 0
	}
	return float64(g.Violations) / float64(g.Completed)
}

// DropRate is the fraction of arrivals rejected at admission.
func (g *ServeGroup) DropRate() float64 {
	if g.Arrived == 0 {
		return 0
	}
	return float64(g.Dropped) / float64(g.Arrived)
}

// ServeResults is the serving layer's report: totals plus per-class and
// per-tenant breakdowns, all deterministic functions of (spec, seed).
type ServeResults struct {
	Spec       string
	Seed       uint64
	Policy     string
	Discipline string

	Cycles  int64 // serving window: first arrival drive to last completion
	Total   ServeGroup
	Classes []ServeGroup
	Tenants []ServeGroup

	// Resilience is present only when the spec enables any resilience
	// mechanism (kill/retry/hedge/breaker/shed), so zero-resilience JSON
	// stays bit-identical to the pre-resilience schema.
	Resilience *ServeResilience `json:",omitempty"`
}

// ServeResilience summarizes the run-wide resilience machinery that has
// no per-group breakdown.
type ServeResilience struct {
	Ejections int64 // circuit-breaker station ejections over the run
}

// Throughput is the saturation metric: completed requests per kilocycle
// over the serving window.
func (s *ServeResults) Throughput() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Total.Completed) * 1000 / float64(s.Cycles)
}

// GoodputPerKCycle is SLA-met completions per kilocycle — the serving
// window's quality-weighted throughput.
func (s *ServeResults) GoodputPerKCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Total.Goodput()) * 1000 / float64(s.Cycles)
}

// FaultResults aggregates the fault injector's observable effects; all
// zero in fault-free runs.
type FaultResults struct {
	Drops           int64 // request packets lost (RI injection + IRI switch hooks)
	Dups            int64 // messages packetized twice
	TimeoutReissues int64 // NC fetches recovered by the loss timeout
	RingFaultStalls int64 // ring-clock edges lost to degrade windows
	MemDownCycles   int64 // memory directory cycles lost to freeze/wedge windows
	NCDownCycles    int64 // network cache cycles lost to freeze windows
}

// ProcResults is the processor section: proc's counters summed over
// CPUs, beside the NAK-retry aggregates of their retry-latency histograms
// and streak trackers. RetryLatency gives the first-issue-to-completion
// latency of references NAK'ed at least once (percentiles via hist.Hist);
// the streak fields summarize consecutive-NAK runs (how convoyed the
// retries were).
type ProcResults struct {
	proc.Stats

	RetryLatency    hist.Hist
	RetryStreaks    int64   // references that needed at least one retry
	RetryStreakMean float64 // mean consecutive NAKs per retried reference
	RetryStreakMax  int64   // worst consecutive-NAK run
}

// Results snapshots the machine's monitors, reconciling every lazily
// accounted statistic first so the snapshot is identical whichever cycle
// loop produced it.
func (m *Machine) Results() Results {
	m.SyncStats()
	r := Results{Cycles: m.now}
	if m.serveReport != nil {
		r.Serve = m.serveReport()
	}
	r.BusUtil = meanUtil(m.Buses, func(b *bus.Bus) *monitor.Utilization { return &b.Util })
	r.LocalRingUtil = meanUtil(m.Locals, func(lr *ring.Ring) *monitor.Utilization { return &lr.Util })
	for _, lr := range m.Locals {
		r.Fault.RingFaultStalls += lr.FaultStalls
	}
	if m.Central != nil {
		r.CentralRingUtil = m.Central.Util.Value()
		r.Fault.RingFaultStalls += m.Central.FaultStalls
	}

	var send, downSink, downNonsink, up, down pooledMean
	for _, ri := range m.RIs {
		send.add(&ri.SendDelay)
		downSink.add(&ri.DownSink)
		downNonsink.add(&ri.DownNonsink)
		r.Fault.Drops += ri.Drops
		r.Fault.Dups += ri.Dups
	}
	for _, iri := range m.IRIs {
		up.add(&iri.UpDelay)
		down.add(&iri.DownDelay)
		r.Fault.Drops += iri.Drops
	}
	r.RISendDelay, r.RIDownSink, r.RIDownNonsink = send.mean(), downSink.mean(), downNonsink.mean()
	r.IRIUpDelay, r.IRIDownDelay = up.mean(), down.mean()

	for _, nc := range m.NCs {
		addCounters(&r.NC, &nc.Stats)
		r.Fault.NCDownCycles += nc.Fault.DownCycles(m.now - 1)
	}
	r.Fault.TimeoutReissues = r.NC.TimeoutReissues
	for _, mem := range m.Mems {
		addCounters(&r.Mem, &mem.Stats)
		r.Fault.MemDownCycles += mem.Fault.DownCycles(m.now - 1)
	}
	for _, c := range m.CPUs {
		addCounters(&r.Proc.Stats, &c.Stats)
		if c.RetryLatency != nil {
			r.Proc.RetryLatency.Merge(c.RetryLatency)
		}
		if n := c.RetryStreak.Count(); n > 0 {
			sum := r.Proc.RetryStreakMean*float64(r.Proc.RetryStreaks) + c.RetryStreak.Mean()*float64(n)
			r.Proc.RetryStreaks += n
			r.Proc.RetryStreakMean = sum / float64(r.Proc.RetryStreaks)
		}
		if mx := c.RetryStreak.Max(); mx > r.Proc.RetryStreakMax {
			r.Proc.RetryStreakMax = mx
		}
	}
	return r
}

// addCounters adds every int64 field of src into dst. A component's stats
// struct is its Results section, so this one sum is the whole copy from
// monitors to report.
func addCounters[T any](dst, src *T) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := range d.NumField() {
		if f := d.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + s.Field(i).Int())
		}
	}
}

// meanUtil is the unweighted mean of the utilizations of xs (one bus per
// station, one local ring per ring group).
func meanUtil[T any](xs []T, util func(T) *monitor.Utilization) float64 {
	var sum float64
	for _, x := range xs {
		sum += util(x).Value()
	}
	return sum / float64(len(xs))
}

// pooledMean is the mean over every sample of several samplers (a delay
// section averaged across ring interfaces); 0 with no samples.
type pooledMean struct{ sum, n float64 }

func (p *pooledMean) add(s *monitor.Sampler) {
	if n := s.Count(); n > 0 {
		p.sum += s.Mean() * float64(n)
		p.n += float64(n)
	}
}

func (p *pooledMean) mean() float64 {
	if p.n == 0 {
		return 0
	}
	return p.sum / p.n
}

// WriteReport renders the statistics block of a run report from r alone:
// numasim prints it after its run header and the telemetry page serves it
// live. faults is the run's Config.FaultLabel; the fault line appears only
// when it is non-empty, the NAK-retry line only when a reference was
// retried, and the serving report only for a serving run.
func (r *Results) WriteReport(w io.Writer, faults string) {
	p, nc := &r.Proc, &r.NC
	fmt.Fprintf(w, "references       %d reads, %d writes (L1 %d, L2 %d, misses %d, upgrades %d)\n",
		p.Reads, p.Writes, p.L1Hits, p.L2Hits, p.Misses, p.Upgrades)
	fmt.Fprintf(w, "stalls           %d memory, %d barrier cycles (all processors)\n",
		p.StallCycles, p.BarrierCycles)
	fmt.Fprintf(w, "network cache    hit %.1f%% (migration %.1f%%, caching %.1f%%), combining %.1f%%, false remote %.3f%%\n",
		100*nc.HitRate(), 100*nc.MigrationRate(), 100*nc.CachingRate(),
		100*nc.CombiningRate(), 100*nc.FalseRemoteRate())
	fmt.Fprintf(w, "utilization      bus %.1f%%, local rings %.1f%%, central ring %.1f%%\n",
		100*r.BusUtil, 100*r.LocalRingUtil, 100*r.CentralRingUtil)
	fmt.Fprintf(w, "ring delays      send %.1f, down sink %.1f, down nonsink %.1f, IRI up %.1f cycles\n",
		r.RISendDelay, r.RIDownSink, r.RIDownNonsink, r.IRIUpDelay)
	fmt.Fprintf(w, "memory           %d transactions, %d invalidation multicasts, %d NAKs, %d optimistic acks\n",
		r.Mem.Transactions, r.Mem.InvalidatesSent, r.Mem.NAKs, r.Mem.OptimisticAcks)
	if faults != "" {
		f := &r.Fault
		fmt.Fprintf(w, "faults           %s: %d drops, %d dups, %d timeout re-issues, %d ring stall edges, mem down %d / nc down %d cycles\n",
			faults, f.Drops, f.Dups, f.TimeoutReissues, f.RingFaultStalls, f.MemDownCycles, f.NCDownCycles)
	}
	if p.RetryStreaks > 0 {
		h := &p.RetryLatency
		fmt.Fprintf(w, "NAK retries      %d references retried (streak mean %.1f, max %d); latency p50/p95/p99 %d/%d/%d max %d cycles\n",
			p.RetryStreaks, p.RetryStreakMean, p.RetryStreakMax,
			h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99), h.Max())
	}
	if r.Serve != nil {
		r.Serve.WriteReport(w)
	}
}

// WriteReport renders the human-readable serving report. The output is a
// deterministic function of s alone — the equivalence tests compare these
// bytes across cycle loops. The resilience lines appear only when the run
// carried a resilience section, so zero-resilience reports keep their
// exact historical bytes.
func (s *ServeResults) WriteReport(w io.Writer) {
	fmt.Fprintf(w, "serve            policy=%s discipline=%s seed=%d\n", s.Policy, s.Discipline, s.Seed)
	fmt.Fprintf(w, "window           %d cycles, %d arrived, %d completed, %d dropped, throughput %.3f req/kcycle\n",
		s.Cycles, s.Total.Arrived, s.Total.Completed, s.Total.Dropped, s.Throughput())
	if s.Resilience != nil {
		t := &s.Total
		fmt.Fprintf(w, "resilience       %d timeouts, %d retries, %d failed, %d hedges (%d wins), %d shed, %d ejections, goodput %.3f req/kcycle\n",
			t.Timeouts, t.Retries, t.Failed, t.Hedges, t.HedgeWins, t.Shed, s.Resilience.Ejections, s.GoodputPerKCycle())
	}
	writeServeGroups(w, "class", s.Classes)
	writeServeGroups(w, "tenant", s.Tenants)
	if s.Resilience != nil {
		writeResilienceGroups(w, "class", s.Classes)
		writeResilienceGroups(w, "tenant", s.Tenants)
	}
}

func writeServeGroups(w io.Writer, kind string, groups []ServeGroup) {
	fmt.Fprintf(w, "%-16s %8s %8s %8s %6s %8s %8s %8s %8s %8s\n",
		kind, "arrived", "done", "dropped", "viol%", "q-p95", "p50", "p95", "p99", "max")
	for i := range groups {
		g := &groups[i]
		fmt.Fprintf(w, "  %-14s %8d %8d %8d %5.1f%% %8d %8d %8d %8d %8d\n",
			g.Name, g.Arrived, g.Completed, g.Dropped, 100*g.ViolationRate(),
			g.Queued.Percentile(0.95), g.Latency.Percentile(0.50), g.Latency.Percentile(0.95),
			g.Latency.Percentile(0.99), g.Latency.Max())
	}
}

// writeResilienceGroups renders the per-group resilience counters; only
// emitted for runs with a resilience section.
func writeResilienceGroups(w io.Writer, kind string, groups []ServeGroup) {
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s %8s %8s\n",
		kind, "timeout", "retry", "failed", "hedge", "wins", "shed", "goodput")
	for i := range groups {
		g := &groups[i]
		fmt.Fprintf(w, "  %-14s %8d %8d %8d %8d %8d %8d %8d\n",
			g.Name, g.Timeouts, g.Retries, g.Failed, g.Hedges, g.HedgeWins, g.Shed, g.Goodput())
	}
}
