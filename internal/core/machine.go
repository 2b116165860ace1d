// Package core assembles the NUMAchine: stations (processors, memory,
// network cache, ring interface, bus) joined by the two-level ring
// hierarchy, plus the shared-memory allocator with round-robin page
// placement, the barrier controller, the deterministic cycle loop, and the
// coherence invariant checker used by the test suite.
package core

import (
	"fmt"

	"numachine/internal/bus"
	"numachine/internal/fault"
	"numachine/internal/memory"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/netcache"
	"numachine/internal/proc"
	"numachine/internal/ring"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// Config describes one machine instance.
type Config struct {
	Geom    topo.Geometry
	Params  sim.Params
	L1Lines int // primary-cache timing filter size (0 disables)

	// ParallelStations runs the station phase of the gated cycle on a
	// worker pool instead of inline on cycles with enough due stations to
	// pay for a round: the same per-station tick function, one shard per
	// station (see parallel.go); the interconnect stays on the caller's
	// goroutine. Results stay bit-identical.
	ParallelStations bool

	// StationWorkers bounds the worker pool for ParallelStations; the
	// count includes the goroutine that runs the machine, so 1 runs every
	// station on it and W starts W-1 helpers. 0 means GOMAXPROCS.
	StationWorkers int

	// FastHits resolves L1/L2 cache hits synchronously in the workload
	// goroutine within a back-end-published delivery horizon, banking hit
	// cycles into Ref.Pre like compute coalescing — no coroutine switch
	// per hit (see internal/proc/fasthits.go and DESIGN.md "Front-end hit
	// filtering"). Results and traces are bit-identical with it on or off;
	// the equivalence suites enforce this across the test-only reference
	// order and both executors, and faulted schedules. DefaultConfig
	// enables it.
	FastHits bool

	// FaultSpec selects the deterministic fault-injection schedule (see
	// fault.ParseSpec); the empty string disables injection entirely and
	// reproduces the fault-free machine byte for byte. FaultSeed seeds
	// every injector PRNG stream: a fixed (seed, spec) pair yields the
	// same faults — at the same cycles, on the same packets — under the
	// test-only reference order and both executors.
	FaultSpec string
	FaultSeed uint64

	// CheckInvariants arms the machine's invariant loop (checkInvariants)
	// after every step: the full coherence check on each entry into
	// quiescence, and the gate audit of the poll caches after every gated
	// step, so a missed influence mark fails at the cycle the tick would be
	// lost. A violation panics with its cycle and rule. Off by default (a
	// full-machine pass per quiescent period, and per stepped cycle); the
	// equivalence suites and the model checker enable it.
	CheckInvariants bool
}

// LoopName names the executor of the gated cycle this configuration
// selects: pooled ("parallel") or inline ("scheduled", the default). Error
// messages and sweep drivers use it so any run is reproducible from its
// label.
func (cfg Config) LoopName() string {
	if cfg.ParallelStations {
		return "parallel"
	}
	return "scheduled"
}

// FaultLabel names the run's fault schedule in reports: "seed=N" when one
// is configured, "" for a fault-free run.
func (cfg Config) FaultLabel() string {
	if cfg.FaultSpec == "" {
		return ""
	}
	return fmt.Sprintf("seed=%d", cfg.FaultSeed)
}

// DefaultConfig returns the 64-processor prototype configuration.
func DefaultConfig() Config {
	return Config{
		Geom:     topo.Prototype,
		Params:   sim.DefaultParams(),
		L1Lines:  256, // 16 KB / 64 B, R4400 on-chip data cache
		FastHits: true,
	}
}

// Machine is one simulated NUMAchine.
type Machine struct {
	Cfg Config

	g topo.Geometry
	p sim.Params

	CPUs    []*proc.CPU
	Buses   []*bus.Bus
	Mems    []*memory.Module
	NCs     []*netcache.Module
	RIs     []*ring.StationRI
	IRIs    []*ring.IRI
	Locals  []*ring.Ring
	Central *ring.Ring // &central on a machine of more than one ring, else nil

	central ring.Ring

	credits *ring.Credits
	// runners holds each processor's program of the current phase. A
	// processor without one (nil) sits in sDone, so the fast-hit horizon
	// skips it and its poll cache stays at sim.Never after the first pass.
	runners []*proc.Runner
	inj     *fault.Injector // nil in fault-free runs

	now      int64
	heapNext uint64
	pageHome map[uint64]int // AllocAt overrides, written before Run only

	barrier barrierCtl

	// wasQuiesced tracks quiescence transitions for checkInvariants (the
	// coherence check runs once per quiescent period, not once per cycle).
	wasQuiesced bool

	// Pooled executor of the gated cycle (ParallelStations; nil pool means
	// every cycle runs inline — see parallel.go). parPhase is set while a
	// pool round is running, and written only at serial points:
	// the barrier then buffers arrivals per station instead of mutating
	// global state from worker goroutines.
	pool     *sim.ShardPool
	parPhase bool

	// Per-cycle memo of deliveryQuiet() for the fast-hit machine-quiet
	// horizon: every deep-idle window open on the same cycle shares one
	// machine scan. quiescedAt is the cycle the memo was taken (-1 = none
	// yet).
	quiescedAt int64
	quiescedOK bool

	// oracle, when set, replaces the gated cycle in Step. Only the
	// equivalence suites set it, to the test-only reference order they
	// compare both executors against.
	oracle func()

	// Poll caches for the gated cycle (see stepGated): the cycle at which
	// each component's activity gate must next be consulted. A cached entry
	// is either the component's own last NextWork report or an influence
	// mark set when a feeder's tick left something in a FIFO it reads.
	// stationNext[s] / ringNext[r] are the minimum over station s's phase-1
	// entries / ring group r's phase-2 entries, the skip masks of the two
	// phases. busFedRing stages the one influence mark that two station
	// shards of the same ring would otherwise write to one entry. ringOf
	// maps a station to its local-ring index.
	pollCPU     []int64
	pollBus     []int64
	pollMem     []int64
	pollNC      []int64
	pollRI      []int64
	pollLocal   []int64
	pollCentral int64
	stationNext []int64
	ringNext    []int64
	busFedRing  []bool
	ringOf      []int

	// FastForwarded counts cycles skipped by quiescence fast-forwarding.
	FastForwarded monitor.Counter

	// tracer is the structured-event tracer (nil when disabled; see
	// EnableTrace in trace.go).
	tracer *trace.Tracer

	// The run loop's serial points, fired at the top of each cycle in this
	// order: the live-metrics sampler (SetSampler), the deadlock watchdog
	// (armed by Run) and the external driver (SetDriver). The watchdog and
	// the driver clamp the quiescence fast-forward (see Step); the sampler
	// only observes.
	sampler, watchdog, driver serialPoint

	// serveReport, when set, contributes the serving-layer section of
	// Results (see SetServeReport).
	serveReport func() *ServeResults
}

// station is one station's bus-side components and the message pool they
// share. New builds every station in place in one slab.
type station struct {
	msgs msg.Pool[msg.Message]
	bus  bus.Bus
	mem  memory.Module
	nc   netcache.Module
	ri   ring.StationRI
}

// ringGroup is one local ring and the inter-ring interface that joins it to
// the central ring; a machine of one ring leaves the IRI unused. New builds
// every group in place in one slab.
type ringGroup struct {
	ring ring.Ring
	iri  ring.IRI
}

// New builds a machine from cfg. Each kind of component is allocated once
// for the whole machine (one slab of CPUs, one of stations, one of ring
// groups, one table of bus attachments) and built in place, and every
// component reads the machine's one copy of the timing parameters, so
// construction costs a fixed number of objects however many processors,
// stations and rings there are.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	spec, err := fault.ParseSpec(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	g := cfg.Geom
	m := &Machine{
		Cfg:        cfg,
		g:          g,
		p:          cfg.Params,
		pageHome:   make(map[uint64]int),
		heapNext:   uint64(cfg.Params.PageSize), // keep address 0 unused
		quiescedAt: -1,
	}
	p := &m.p // nothing writes it after New
	// Build the injector only for a non-zero spec: a nil injector keeps
	// every hook inert and fault-free runs byte-identical.
	if !spec.Zero() {
		m.inj = fault.New(cfg.FaultSeed, spec)
	}
	m.credits = ring.NewCredits(g.Stations(), p.MaxNonsinkable)

	ns, nmod := g.Stations(), g.ModCount()
	stations := make([]station, ns)
	modules := make([]bus.Module, ns*nmod)
	outs := make([]*sim.Queue[*msg.Message], ns*nmod)
	m.Buses = make([]*bus.Bus, ns)
	m.Mems = make([]*memory.Module, ns)
	m.NCs = make([]*netcache.Module, ns)
	m.RIs = make([]*ring.StationRI, ns)
	// One message pool per station, shared by every component of that
	// station; births indexes them by station, and every record dies into
	// the pool that built it (see msg.Pool). No pool needs a lock under any
	// cycle loop: a station's components use its pool on its phase-1 worker
	// or in the serial interconnect phase, which the shard pool's barrier
	// separates, and ring originals go home only in that serial phase.
	births := make([]*msg.Pool[msg.Message], ns)
	for s := range stations {
		st := &stations[s]
		pool := &st.msgs
		births[s] = pool
		lo, hi := s*nmod, (s+1)*nmod
		st.bus.Init(g, p, modules[lo:hi:hi], outs[lo:hi:hi])
		st.bus.Msgs = pool
		m.Buses[s] = &st.bus
		st.mem.Init(g, p, s)
		st.mem.Fault = m.inj.Mem(s)
		st.mem.Msgs = pool
		m.Mems[s] = &st.mem
		st.nc.Init(g, p, s)
		st.nc.Fault = m.inj.NC(s)
		st.nc.FetchTimeout = m.inj.FetchTimeout()
		st.nc.Msgs = pool
		m.NCs[s] = &st.nc
		st.ri.Init(g, p, s, m.credits)
		st.ri.Fault = m.inj.RI(s)
		st.ri.Msgs = pool
		st.ri.Births = births
		m.RIs[s] = &st.ri
	}
	m.runners = make([]*proc.Runner, g.Procs())
	// Every CPU shares one function value per hook (a method value built
	// per CPU is a heap object per CPU).
	homeOf, onBarrier := m.HomeOf, m.barrierArrive
	cpus := make([]proc.CPU, g.Procs())
	m.CPUs = make([]*proc.CPU, g.Procs())
	for id := range cpus {
		cpu := &cpus[id]
		cpu.Init(g, p, id, nil, cfg.L1Lines)
		cpu.HomeOf = homeOf
		cpu.OnBarrier = onBarrier
		cpu.Msgs = births[cpu.Station]
		m.CPUs[id] = cpu
	}
	for s, b := range m.Buses {
		for i := 0; i < g.ProcsPerStation; i++ {
			b.Attach(g.ModProc(i), m.CPUs[g.ProcAt(s, i)])
		}
		b.Attach(g.ModMem(), m.Mems[s])
		b.Attach(g.ModNC(), m.NCs[s])
		b.Attach(g.ModRI(), m.RIs[s])
	}
	m.buildRings(births)
	m.pollCPU = make([]int64, g.Procs())
	m.pollBus = make([]int64, g.Stations())
	m.pollMem = make([]int64, g.Stations())
	m.pollNC = make([]int64, g.Stations())
	m.pollRI = make([]int64, g.Stations())
	m.pollLocal = make([]int64, g.Rings)
	m.ringOf = make([]int, g.Stations())
	for s := range m.ringOf {
		m.ringOf[s] = g.RingOf(s)
	}
	m.busFedRing = make([]bool, g.Stations())
	m.stationNext = make([]int64, g.Stations())
	m.ringNext = make([]int64, g.Rings)
	if cfg.LoopName() == "parallel" {
		m.pool = sim.NewShardPool(cfg.StationWorkers, g.Stations(), m.runShard)
		m.barrier.parArrived = make([][]*proc.CPU, g.Stations())
	}
	return m, nil
}

// buildRings wires the ring hierarchy in place: each local ring carries its
// stations' RIs (station ids are ring-major) and, when there is a central
// ring, its IRI, the ring's sequencing point (§2.3); the central ring
// carries every IRI. All rings share one slab of slots. births is every
// station's message pool, where the IRIs return the ring originals whose
// last packet dies in them.
func (m *Machine) buildRings(births []*msg.Pool[msg.Message]) {
	g, p := m.g, &m.p
	n, spr := g.Rings, g.StationsPerRing
	groups := make([]ringGroup, n)
	m.Locals = make([]*ring.Ring, n)
	members := spr // slots per local ring: its RIs, then its IRI
	if n > 1 {
		members++
		m.IRIs = make([]*ring.IRI, n)
		for r := range groups {
			iri := &groups[r].iri
			iri.Init(p, r, m.credits)
			iri.Fault = m.inj.IRI(r)
			iri.Births = births
			m.IRIs[r] = iri
		}
	}
	slots := make([]msg.Packet, n*members+len(m.IRIs))
	for r := range groups {
		lr := &groups[r].ring
		var iri []*ring.IRI
		if n > 1 {
			iri = m.IRIs[r : r+1]
		}
		first, lo, hi := g.StationAt(r, 0), r*members, (r+1)*members
		lr.Init(p, m.RIs[first:first+spr], iri, slots[lo:hi:hi])
		lr.Fault = m.inj.Ring(r)
		m.Locals[r] = lr
	}
	if n > 1 {
		m.central.Init(p, nil, m.IRIs, slots[n*members:])
		m.central.Fault = m.inj.Ring(-1)
		m.Central = &m.central
	}
}

// Geometry returns the machine geometry.
func (m *Machine) Geometry() topo.Geometry { return m.g }

// Params returns the timing parameters.
func (m *Machine) Params() sim.Params { return m.p }

// Now returns the current cycle.
func (m *Machine) Now() int64 { return m.now }

// ---- address space ----

// LineOf aligns addr to its cache line.
func (m *Machine) LineOf(addr uint64) uint64 { return addr &^ (uint64(m.p.LineSize) - 1) }

// Alloc reserves size bytes of shared memory and returns the base address.
// Allocations are line-aligned; pages are homed round robin.
func (m *Machine) Alloc(size int) uint64 {
	if size <= 0 {
		panic("core: Alloc with non-positive size")
	}
	base := m.heapNext
	ls := uint64(m.p.LineSize)
	m.heapNext += (uint64(size) + ls - 1) &^ (ls - 1)
	return base
}

// AllocLines reserves n whole cache lines.
func (m *Machine) AllocLines(n int) uint64 { return m.Alloc(n * m.p.LineSize) }

// AllocAt reserves size bytes placed entirely on the given station,
// overriding round robin (page-aligned). It is the only writer of page
// homes and is called before Run, so homes are fixed during a run.
func (m *Machine) AllocAt(station, size int) uint64 {
	ps := uint64(m.p.PageSize)
	if rem := m.heapNext % ps; rem != 0 {
		m.heapNext += ps - rem
	}
	base := m.heapNext
	m.heapNext += (uint64(size) + ps - 1) &^ (ps - 1)
	for pg := base / ps; pg <= (m.heapNext-1)/ps; pg++ {
		m.pageHome[pg] = station
	}
	return base
}

// HomeOf returns the home station of the line containing addr: the page's
// AllocAt override when it has one, round robin otherwise. Round-robin
// homes are a pure function of the page and are not stored. HomeOf only
// reads, so CPUs on different stations may call it concurrently under the
// pooled executor.
func (m *Machine) HomeOf(addr uint64) int {
	pg := addr / uint64(m.p.PageSize)
	if s, ok := m.pageHome[pg]; ok {
		return s
	}
	return int(pg % uint64(m.g.Stations()))
}
