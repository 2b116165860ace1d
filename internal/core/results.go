package core

import "numachine/internal/hist"

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

	NC    NCResults
	Mem   MemResults
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
	Timeouts  int64 `json:",omitempty"` // attempts killed at a Sync point past their deadline
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

// NCResults aggregates network cache statistics across stations.
type NCResults struct {
	Requests      int64
	HitsMigration int64
	HitsCaching   int64
	LocalInterv   int64
	Combined      int64
	Conflicts     int64
	RemoteFetches int64
	Retries       int64
	FalseRemotes  int64
	SpecialWrReqs int64
	Ejections     int64
	EjectWrBacks  int64
	EjectLISilent int64
}

// HitRate is Figure 15's metric: requests satisfied locally (NC hits plus
// local interventions) over total non-retry requests.
func (n NCResults) HitRate() float64 {
	if n.Requests == 0 {
		return 0
	}
	return float64(n.HitsMigration+n.HitsCaching+n.LocalInterv) / float64(n.Requests)
}

// MigrationRate and CachingRate decompose the hit rate (Figure 15).
func (n NCResults) MigrationRate() float64 {
	if n.Requests == 0 {
		return 0
	}
	return float64(n.HitsMigration) / float64(n.Requests)
}

// CachingRate is the caching-effect share of the hit rate.
func (n NCResults) CachingRate() float64 {
	if n.Requests == 0 {
		return 0
	}
	return float64(n.HitsCaching+n.LocalInterv) / float64(n.Requests)
}

// CombiningRate is Figure 16's metric: concurrent same-line requests
// masked out by a pending fetch, relative to all non-retry requests.
func (n NCResults) CombiningRate() float64 {
	if n.Requests == 0 {
		return 0
	}
	return float64(n.Combined) / float64(n.Requests)
}

// FalseRemoteRate is Table 3's metric: the fraction of local requests to
// the NC that caused a false remote request to the home memory.
func (n NCResults) FalseRemoteRate() float64 {
	if n.Requests == 0 {
		return 0
	}
	return float64(n.FalseRemotes) / float64(n.Requests)
}

// MemResults aggregates memory module statistics across stations.
type MemResults struct {
	Transactions     int64
	NAKs             int64
	InvalidatesSent  int64
	Interventions    int64
	OptimisticAcks   int64
	UpgradeDataSends int64
	SpecialWrServed  int64
	FalseRemotes     int64
}

// ProcResults aggregates processor statistics.
type ProcResults struct {
	Reads, Writes  int64
	L1Hits, L2Hits int64
	Misses         int64
	Upgrades       int64
	WriteBacks     int64
	NAKRetries     int64
	StallCycles    int64
	BarrierCycles  int64

	// NAK-retry visibility: RetryLatency histograms the first-issue-to-
	// completion latency of references that were NAK'ed at least once
	// (percentiles via hist.Hist); the streak fields summarize
	// consecutive-NAK runs (how convoyed the retries were).
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
	for _, b := range m.Buses {
		r.BusUtil += b.Util.Value()
	}
	r.BusUtil /= float64(len(m.Buses))
	for _, lr := range m.Locals {
		r.LocalRingUtil += lr.Util.Value()
	}
	r.LocalRingUtil /= float64(len(m.Locals))
	if m.Central != nil {
		r.CentralRingUtil = m.Central.Util.Value()
	}

	var sendN, downSinkN, downNonsinkN float64
	for _, ri := range m.RIs {
		if n := ri.SendDelay.Count(); n > 0 {
			r.RISendDelay += ri.SendDelay.Mean() * float64(n)
			sendN += float64(n)
		}
		if n := ri.DownSink.Count(); n > 0 {
			r.RIDownSink += ri.DownSink.Mean() * float64(n)
			downSinkN += float64(n)
		}
		if n := ri.DownNonsink.Count(); n > 0 {
			r.RIDownNonsink += ri.DownNonsink.Mean() * float64(n)
			downNonsinkN += float64(n)
		}
	}
	if sendN > 0 {
		r.RISendDelay /= sendN
	}
	if downSinkN > 0 {
		r.RIDownSink /= downSinkN
	}
	if downNonsinkN > 0 {
		r.RIDownNonsink /= downNonsinkN
	}
	var upN, downN float64
	for _, iri := range m.IRIs {
		if n := iri.UpDelay.Count(); n > 0 {
			r.IRIUpDelay += iri.UpDelay.Mean() * float64(n)
			upN += float64(n)
		}
		if n := iri.DownDelay.Count(); n > 0 {
			r.IRIDownDelay += iri.DownDelay.Mean() * float64(n)
			downN += float64(n)
		}
	}
	if upN > 0 {
		r.IRIUpDelay /= upN
	}
	if downN > 0 {
		r.IRIDownDelay /= downN
	}

	for _, nc := range m.NCs {
		s := &nc.Stats
		r.NC.Requests += s.Requests.Value()
		r.NC.HitsMigration += s.HitsMigration.Value()
		r.NC.HitsCaching += s.HitsCaching.Value()
		r.NC.LocalInterv += s.LocalInterv.Value()
		r.NC.Combined += s.Combined.Value()
		r.NC.Conflicts += s.Conflicts.Value()
		r.NC.RemoteFetches += s.RemoteFetches.Value()
		r.NC.Retries += s.Retries.Value()
		r.NC.FalseRemotes += s.FalseRemotes.Value()
		r.NC.SpecialWrReqs += s.SpecialWrReqs.Value()
		r.NC.Ejections += s.Ejections.Value()
		r.NC.EjectWrBacks += s.EjectWrBacks.Value()
		r.NC.EjectLISilent += s.EjectLISilent.Value()
	}
	for _, mem := range m.Mems {
		s := &mem.Stats
		r.Mem.Transactions += s.Transactions.Value()
		r.Mem.NAKs += s.NAKs.Value()
		r.Mem.InvalidatesSent += s.InvalidatesSent.Value()
		r.Mem.Interventions += s.Interventions.Value()
		r.Mem.OptimisticAcks += s.OptimisticAcks.Value()
		r.Mem.UpgradeDataSends += s.UpgradeDataSends.Value()
		r.Mem.SpecialWrServed += s.SpecialWrServed.Value()
		r.Mem.FalseRemotes += s.FalseRemotes.Value()
	}
	for _, c := range m.CPUs {
		s := &c.Stats
		r.Proc.Reads += s.Reads.Value()
		r.Proc.Writes += s.Writes.Value()
		r.Proc.L1Hits += s.L1Hits.Value()
		r.Proc.L2Hits += s.L2Hits.Value()
		r.Proc.Misses += s.Misses.Value()
		r.Proc.Upgrades += s.Upgrades.Value()
		r.Proc.WriteBacks += s.WriteBacks.Value()
		r.Proc.NAKRetries += s.NAKRetries.Value()
		r.Proc.StallCycles += s.StallCycles.Value()
		r.Proc.BarrierCycles += s.BarrierCycles.Value()
		if s.RetryLatency != nil {
			r.Proc.RetryLatency.Merge(s.RetryLatency)
		}
		var streakSum float64
		if n := s.RetryStreak.Count(); n > 0 {
			streakSum = r.Proc.RetryStreakMean*float64(r.Proc.RetryStreaks) + s.RetryStreak.Mean()*float64(n)
			r.Proc.RetryStreaks += n
			r.Proc.RetryStreakMean = streakSum / float64(r.Proc.RetryStreaks)
		}
		if mx := s.RetryStreak.Max(); mx > r.Proc.RetryStreakMax {
			r.Proc.RetryStreakMax = mx
		}
	}

	for _, ri := range m.RIs {
		r.Fault.Drops += ri.Drops.Value()
		r.Fault.Dups += ri.Dups.Value()
	}
	for _, iri := range m.IRIs {
		r.Fault.Drops += iri.Drops.Value()
	}
	for _, nc := range m.NCs {
		r.Fault.TimeoutReissues += nc.Stats.TimeoutReissues.Value()
		r.Fault.NCDownCycles += nc.Fault.DownCycles(m.now - 1)
	}
	for _, mem := range m.Mems {
		r.Fault.MemDownCycles += mem.Fault.DownCycles(m.now - 1)
	}
	for _, lr := range m.Locals {
		r.Fault.RingFaultStalls += lr.FaultStalls.Value()
	}
	if m.Central != nil {
		r.Fault.RingFaultStalls += m.Central.FaultStalls.Value()
	}
	return r
}
