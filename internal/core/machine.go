// Package core assembles the NUMAchine: stations (processors, memory,
// network cache, ring interface, bus) joined by the two-level ring
// hierarchy, plus the shared-memory allocator, page placement policies,
// the barrier controller, the deterministic cycle loop, and the coherence
// invariant checker used by the test suite.
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

// Placement selects the physical page placement policy.
type Placement uint8

const (
	// RoundRobin assigns page p to station p mod stations — the paper's
	// (deliberately pessimistic) evaluation setting.
	RoundRobin Placement = iota
	// FirstTouch assigns a page to the station of the first processor that
	// references it.
	FirstTouch
)

// Config describes one machine instance.
type Config struct {
	Geom      topo.Geometry
	Params    sim.Params
	L1Lines   int // primary-cache timing filter size (0 disables)
	Placement Placement

	// NaiveLoop disables the activity gates and the quiescence fast-forward
	// and ticks every component every cycle, component-major. Results are
	// bit-identical either way (the equivalence test suite enforces it); the
	// naive loop exists as the reference implementation and for debugging.
	NaiveLoop bool

	// ParallelStations runs the gated cycle on a worker pool instead of
	// inline: the same per-station and per-ring-group tick functions, one
	// shard per station in the station phase and one per local ring in the
	// ring phase (see parallel.go). Results stay bit-identical. Ignored
	// under NaiveLoop, and under FirstTouch placement (same-cycle first
	// touches from different stations need the inline executor's ascending
	// CPU order), where the gated cycle runs inline.
	ParallelStations bool

	// StationWorkers bounds the worker pool for ParallelStations;
	// 0 means GOMAXPROCS.
	StationWorkers int

	// FastHits resolves L1/L2 cache hits synchronously in the workload
	// goroutine within a back-end-published delivery horizon, banking hit
	// cycles into Ref.Pre like compute coalescing — zero channel operations
	// per hit (see internal/proc/fasthits.go and DESIGN.md "Front-end hit
	// filtering"). Results and traces are bit-identical with it on or off;
	// the equivalence suites enforce this across all three cycle loops and
	// faulted schedules. DefaultConfig enables it.
	FastHits bool

	// FaultSpec selects the deterministic fault-injection schedule (see
	// fault.ParseSpec); the empty string disables injection entirely and
	// reproduces the fault-free machine byte for byte. FaultSeed seeds
	// every injector PRNG stream: a fixed (seed, spec) pair yields the
	// same faults — at the same cycles, on the same packets — under all
	// three cycle loops.
	FaultSpec string
	FaultSeed uint64

	// CheckInvariants promotes CheckCoherence from an end-of-run spot
	// check to an every-quiescence invariant: whenever the machine enters
	// a quiescent state during Run (and again after the final Drain), the
	// full coherence check runs and any violation panics with the line,
	// cycle and rule. Off by default (the scan costs a full-machine pass
	// per quiescent period); the equivalence suites enable it.
	CheckInvariants bool
}

// LoopName names the cycle loop this configuration selects: "naive", or
// the gated cycle under its pooled ("parallel") or inline ("scheduled", the
// default) executor. Error messages and sweep drivers use it so any run is
// reproducible from its label.
func (cfg Config) LoopName() string {
	switch {
	case cfg.NaiveLoop:
		return "naive"
	case cfg.ParallelStations && cfg.Placement != FirstTouch:
		return "parallel"
	default:
		return "scheduled"
	}
}

// DefaultConfig returns the 64-processor prototype configuration.
func DefaultConfig() Config {
	return Config{
		Geom:      topo.Prototype,
		Params:    sim.DefaultParams(),
		L1Lines:   256, // 16 KB / 64 B, R4400 on-chip data cache
		Placement: RoundRobin,
		FastHits:  true,
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
	Central *ring.Ring

	credits *ring.Credits
	runners []*proc.Runner
	inj     *fault.Injector // nil in fault-free runs

	// msgPools/pktPools are every message and packet free list in the
	// machine, collected once so rebalancePools can level them: structs
	// are allocated by the sending side's pool but recycled into the pool
	// where they die, so asymmetric traffic steadily drains some free
	// lists while growing others. Leveling runs only at serial points
	// (Load, and the Run loop every rebalanceEvery cycles after flushing
	// any deferred central tick) and is invisible to simulated behaviour.
	msgPools    []*msg.MessagePool
	pktPools    []*msg.PacketPool
	rebalanceAt int64

	now      int64
	heapNext uint64
	pageHome map[uint64]int // FirstTouch assignments

	barrier  barrierCtl
	Phases   *monitor.PhaseIDs
	deadlock int64

	// wasQuiesced tracks quiescence transitions for Config.CheckInvariants
	// (the check runs once per quiescent period, not once per cycle).
	wasQuiesced bool

	// Pooled executor of the gated cycle (ParallelStations; nil pool means
	// the cycle runs inline — see parallel.go). inParallelPhase marks a
	// pooled phase 1 so the barrier buffers arrivals per station instead of
	// mutating global state from worker goroutines. parPhase selects the
	// shard body for the current pool dispatch; it is written only at
	// serial points. phase2Ring[s] is the ring led by shard s in phase 2
	// (-1 when shard s is idle in that phase).
	pool            *sim.ShardPool
	inParallelPhase bool
	parPhase        int
	phase2Ring      []int

	// Deferred tail: when the central ring has work at cycle N the pooled
	// executor records it here instead of ticking inline, and performs the
	// tick overlapped with cycle N+1's phase-1 dispatch (or at the next
	// serial observation point, whichever comes first). See flushTail in
	// parallel.go for the disjointness argument.
	tailPending bool
	tailAt      int64

	// watchdogAt is the cycle at which the deadlock watchdog next samples
	// progress; quiescence fast-forwards clamp to it so the watchdog trips
	// at the same cycle in every loop.
	watchdogAt int64

	// Per-cycle memo of Quiesced() for the fast-hit tier-3 horizon: every
	// deep-idle window open on the same cycle shares one machine scan.
	// quiescedAt is the cycle the memo was taken (-1 = none yet).
	quiescedAt int64
	quiescedOK bool

	// Per-cycle memo of remoteTransitFloor for the fast-hit tier-2.5
	// horizon (transitAt = cycle taken; -1 = none yet).
	transitAt    int64
	transitOK    bool
	transitFloor int64

	// gated is set for everything but NaiveLoop: components tick only when
	// their activity gate fires (stepGated), with the poll caches below
	// amortizing the gate itself.
	gated bool

	// Poll caches for the gated cycle (see stepGated): the cycle at which
	// each component's activity gate must next be consulted. A cached entry
	// is either the component's own last NextWork report or an influence
	// mark set when a component that can hand it work ticked.
	// stationNext[s] / ringNext[r] are the minimum over station s's phase-1
	// entries / ring group r's phase-2 entries, the skip masks of the two
	// phases. busFedRing / ringFedCentral stage the two influence marks
	// that cross a phase boundary (and would race across pool shards).
	// ringOf maps a station to its local-ring index; stationCPUs[s] are the
	// CPUs of station s in tick order.
	pollCPU        []int64
	pollBus        []int64
	pollMem        []int64
	pollNC         []int64
	pollRI         []int64
	pollLocal      []int64
	pollCentral    int64
	stationNext    []int64
	ringNext       []int64
	busFedRing     []bool
	ringFedCentral []bool
	ringOf         []int
	stationCPUs    [][]*proc.CPU

	// liveCPU marks processors with a loaded program. The others sit in
	// sDone forever, so the bus influence mark skips them and their poll
	// cache stays at sim.Never after the first pass — a station none of
	// whose CPUs is live costs one stationNext comparison per cycle.
	liveCPU []bool

	// FastForwarded counts cycles skipped by quiescence fast-forwarding.
	FastForwarded monitor.Counter

	// tracer is the structured-event tracer (nil when disabled; see
	// EnableTrace in trace.go).
	tracer *trace.Tracer

	// Live-metrics sampler (SetSampler): onSample runs at a serial point
	// of the run loop every sampleEvery cycles.
	sampleEvery int64
	sampleAt    int64
	onSample    func(*Machine)

	// External driver (SetDriver): onDrive runs at a serial point of the
	// run loop every driveEvery cycles, *before* the cycle's step, and —
	// unlike the sampler — at exactly the same cycles under every loop:
	// the quiescence fast-forward clamps to driveAt (see step), so a drive
	// lands on its scheduled cycle whether the machine walked or jumped
	// there. The serving layer injects arrivals and dispatches requests
	// from here.
	driveEvery int64
	driveAt    int64
	onDrive    func(*Machine)

	// serveReport, when set, contributes the serving-layer section of
	// Results (see SetServeReport).
	serveReport func() *ServeResults
}

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	spec, err := fault.ParseSpec(cfg.FaultSpec)
	if err != nil {
		return nil, err
	}
	g, p := cfg.Geom, cfg.Params
	m := &Machine{
		Cfg:        cfg,
		g:          g,
		p:          p,
		pageHome:   make(map[uint64]int),
		heapNext:   uint64(p.PageSize), // keep address 0 unused
		Phases:     monitor.NewPhaseIDs(g.Procs()),
		quiescedAt: -1,
		transitAt:  -1,
	}
	// Build the injector only for a non-zero spec: a nil injector keeps
	// every hook inert and fault-free runs byte-identical.
	if !spec.Zero() {
		m.inj = fault.New(cfg.FaultSeed, spec)
	}
	m.credits = ring.NewCredits(g.Stations(), p.MaxNonsinkable)

	for s := 0; s < g.Stations(); s++ {
		// One message pool per station, shared by every component of that
		// station: all of a station's Get/Put calls happen on its phase-1
		// worker or its ring's phase-2 worker, which the cycle barrier
		// separates, so the pool needs no locking under any cycle loop.
		pool := new(msg.MessagePool)
		m.msgPools = append(m.msgPools, pool)
		b := bus.New(g, p, s)
		b.Msgs = pool
		m.Buses = append(m.Buses, b)
		mem := memory.New(g, p, s)
		mem.Fault = m.inj.Mem(s)
		mem.Msgs = pool
		m.Mems = append(m.Mems, mem)
		nc := netcache.New(g, p, s)
		nc.Fault = m.inj.NC(s)
		nc.FetchTimeout = m.inj.FetchTimeout()
		nc.Msgs = pool
		m.NCs = append(m.NCs, nc)
		ri := ring.NewStationRI(g, p, s, m.credits)
		ri.Fault = m.inj.RI(s)
		ri.Msgs = pool
		m.RIs = append(m.RIs, ri)
	}
	m.runners = make([]*proc.Runner, g.Procs())
	for id := 0; id < g.Procs(); id++ {
		cpu := proc.New(g, p, id, nil, cfg.L1Lines)
		cpu.HomeOf = m.homeOfFor(cpu)
		cpu.OnBarrier = m.barrierArrive
		cpu.OnPhase = func(c *proc.CPU, ph uint8) { m.Phases.Set(c.GlobalID, ph) }
		cpu.Msgs = m.Buses[cpu.Station].Msgs
		m.CPUs = append(m.CPUs, cpu)
	}
	for s := 0; s < g.Stations(); s++ {
		b := m.Buses[s]
		for i := 0; i < g.ProcsPerStation; i++ {
			b.Attach(g.ModProc(i), m.CPUs[g.ProcAt(s, i)])
		}
		b.Attach(g.ModMem(), m.Mems[s])
		b.Attach(g.ModNC(), m.NCs[s])
		b.Attach(g.ModRI(), m.RIs[s])
	}
	m.buildRings()
	for _, ri := range m.RIs {
		m.pktPools = append(m.pktPools, ri.PacketPool())
	}
	for _, iri := range m.IRIs {
		m.pktPools = append(m.pktPools, iri.PacketPool())
	}
	m.liveCPU = make([]bool, g.Procs())
	if !cfg.NaiveLoop {
		m.gated = true
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
		for s := 0; s < g.Stations(); s++ {
			first := g.ProcAt(s, 0)
			m.stationCPUs = append(m.stationCPUs, m.CPUs[first:first+g.ProcsPerStation])
		}
		m.busFedRing = make([]bool, g.Stations())
		m.ringFedCentral = make([]bool, g.Rings)
		m.stationNext = make([]int64, g.Stations())
		m.ringNext = make([]int64, g.Rings)
	}
	if cfg.LoopName() == "parallel" {
		// Phase-2 shard assignment: the first station of ring r leads ring
		// group r, every other shard is idle in phase 2. With the pool's
		// block partition this spreads the ring groups across workers.
		m.phase2Ring = make([]int, g.Stations())
		for s := range m.phase2Ring {
			m.phase2Ring[s] = -1
		}
		for r := 0; r < g.Rings; r++ {
			m.phase2Ring[g.StationAt(r, 0)] = r
		}
		m.pool = sim.NewShardPool(cfg.StationWorkers, g.Stations(), m.runShard)
		m.barrier.parArrived = make([][]*proc.CPU, g.Stations())
	}
	return m, nil
}

// buildRings wires the ring hierarchy: each local ring carries its
// stations (plus an inter-ring interface when there is a central ring);
// the sequencing point of a local ring is its IRI (§2.3), or node 0 on
// single-ring machines.
func (m *Machine) buildRings() {
	g, p := m.g, m.p
	multi := g.Rings > 1
	var centralNodes []ring.Node
	for r := 0; r < g.Rings; r++ {
		var nodes []ring.Node
		for pos := 0; pos < g.StationsPerRing; pos++ {
			nodes = append(nodes, m.RIs[g.StationAt(r, pos)])
		}
		seq := 0
		if multi {
			iri := ring.NewIRI(p, r, m.credits)
			iri.Fault = m.inj.IRI(r)
			m.IRIs = append(m.IRIs, iri)
			nodes = append(nodes, iri.LocalPort())
			centralNodes = append(centralNodes, iri.CentralPort())
			seq = len(nodes) - 1
		}
		name := fmt.Sprintf("local-%d", r)
		lr := ring.New(name, p, nodes, seq, false)
		lr.Fault = m.inj.Ring(name)
		m.Locals = append(m.Locals, lr)
	}
	if multi {
		m.Central = ring.New("central", p, centralNodes, 0, true)
		m.Central.Fault = m.inj.Ring("central")
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
// Allocations are line-aligned; page homes follow the placement policy.
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
// overriding the placement policy (page-aligned).
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

// HomeOf returns the home station of the line containing addr.
func (m *Machine) HomeOf(addr uint64) int {
	pg := addr / uint64(m.p.PageSize)
	if s, ok := m.pageHome[pg]; ok {
		return s
	}
	if m.Cfg.Placement == RoundRobin {
		s := int(pg % uint64(m.g.Stations()))
		m.pageHome[pg] = s
		return s
	}
	// FirstTouch without a toucher: fall back to round robin.
	s := int(pg % uint64(m.g.Stations()))
	m.pageHome[pg] = s
	return s
}

// homeOfFor builds the per-CPU home resolver, implementing first-touch
// assignment when configured. Under the pooled executor the resolver must
// not memoize: CPUs on different stations call it concurrently during
// phase 1, and round-robin homes are a pure function of the page anyway
// (FirstTouch, which genuinely assigns, never runs pooled). pageHome is
// then read-only during phase 1 — only AllocAt overrides, written before
// Run — so the concurrent map reads are safe.
func (m *Machine) homeOfFor(c *proc.CPU) func(uint64) int {
	return func(line uint64) int {
		pg := line / uint64(m.p.PageSize)
		if s, ok := m.pageHome[pg]; ok {
			return s
		}
		var s int
		if m.Cfg.Placement == FirstTouch {
			s = c.Station
		} else {
			s = int(pg % uint64(m.g.Stations()))
			if m.pool != nil {
				return s
			}
		}
		m.pageHome[pg] = s
		return s
	}
}

// ---- barrier controller ----

// barrierCtl implements the hardware barrier-register synchronization of
// §3.2: arrival is a multicast register write; once every participant has
// arrived, releases propagate with a ring-traversal latency.
type barrierCtl struct {
	participants int
	arrived      []*proc.CPU
	parArrived   [][]*proc.CPU // phase-1 arrival buffers, one per station
	releases     []barrierRelease
}

type barrierRelease struct {
	cpu *proc.CPU
	at  int64
}

// barrierArrive records a CPU's arrival. During a pooled station phase
// arrivals land in the caller's station buffer (each buffer is touched by
// exactly one worker); flushParallelArrivals merges them afterwards.
func (m *Machine) barrierArrive(c *proc.CPU, now int64) {
	if m.inParallelPhase {
		s := c.Station
		m.barrier.parArrived[s] = append(m.barrier.parArrived[s], c)
		return
	}
	m.arriveSerial(c, now)
}

func (m *Machine) arriveSerial(c *proc.CPU, now int64) {
	m.barrier.arrived = append(m.barrier.arrived, c)
	if len(m.barrier.arrived) < m.barrier.participants {
		return
	}
	// All arrived: release everyone after a multicast traversal delay.
	delay := m.barrierLatency()
	for _, cpu := range m.barrier.arrived {
		m.barrier.releases = append(m.barrier.releases, barrierRelease{cpu: cpu, at: now + delay})
	}
	m.barrier.arrived = m.barrier.arrived[:0]
}

// barrierLatency approximates the multicast of barrier-register writes:
// one traversal of the ring hierarchy.
func (m *Machine) barrierLatency() int64 {
	hops := m.g.StationsPerRing + 1
	if m.g.Rings > 1 {
		hops += m.g.Rings + m.g.StationsPerRing + 1
	}
	return int64(hops*m.p.RingHopCycles + 2*m.p.BusArbCycles + 2*m.p.BusCmdCycles)
}

func (m *Machine) fireBarriers() {
	if len(m.barrier.releases) == 0 {
		return
	}
	kept := m.barrier.releases[:0]
	for _, r := range m.barrier.releases {
		if r.at <= m.now {
			r.cpu.FinishBarrier(m.now)
			if m.gated {
				m.pollCPU[r.cpu.GlobalID] = m.now
				if s := r.cpu.Station; m.stationNext[s] > m.now {
					m.stationNext[s] = m.now
				}
			}
		} else {
			kept = append(kept, r)
		}
	}
	m.barrier.releases = kept
}

// ---- run loop ----

// Load assigns programs to the first len(progs) processors. It must be
// called before Run; the remaining processors stay idle.
func (m *Machine) Load(progs []proc.Program) {
	if len(progs) > len(m.CPUs) {
		panic(fmt.Sprintf("core: %d programs for %d processors", len(progs), len(m.CPUs)))
	}
	m.barrier.participants = len(progs)
	for i := range m.runners {
		m.runners[i] = nil // drop runners from a previous phase
	}
	for i, pr := range progs {
		m.runners[i] = proc.NewRunner(i, len(progs), pr)
		m.CPUs[i].SetRunner(m.runners[i])
		if m.Cfg.FastHits {
			m.CPUs[i].Horizon = m.hitHorizonFor(m.CPUs[i])
			m.CPUs[i].EnableFastHits()
		}
	}
	for i := range m.liveCPU {
		m.liveCPU[i] = m.runners[i] != nil
	}
	m.rebalancePools() // start the phase with leveled free lists
	m.resetPolls()
}

// rebalanceEvery is the cycle cadence of the free-list leveling in Run.
// The interval only has to bound how far a free list can drain between
// levelings: cross-pool drift is a few structs per thousand cycles even
// under the most asymmetric workloads, far below the working-set-sized
// free lists a warmed-up machine carries.
const rebalanceEvery = 1 << 13

// rebalancePools levels every message and packet free list across the
// machine (see msg.RebalancePackets). Callers must hold the serial point:
// no shard may be running, and a deferred central tick must be flushed
// first because it touches the IRI packet pools.
func (m *Machine) rebalancePools() {
	msg.RebalanceMessages(m.msgPools)
	msg.RebalancePackets(m.pktPools)
}

// Step advances the machine one cycle. The reference order (stepNaive) is
// component-major: processors, buses, memory modules, network caches, ring
// interfaces, local rings, central ring. The gated cycle (stepGated) ticks
// only components whose activity gate fires and walks the station phase
// station-major; DESIGN.md "Gated cycle loop" argues why no component can
// tell the two orders apart, and the equivalence suites check it.
func (m *Machine) Step() {
	if !m.gated {
		m.stepNaive()
		return
	}
	m.stepGated()
}

func (m *Machine) stepNaive() {
	now := m.now
	m.fireBarriers()
	for _, c := range m.CPUs {
		c.Tick(now)
	}
	for _, b := range m.Buses {
		b.Tick(now)
	}
	for _, mem := range m.Mems {
		mem.Tick(now)
	}
	for _, nc := range m.NCs {
		nc.Tick(now)
	}
	for _, ri := range m.RIs {
		ri.Tick(now)
	}
	for _, lr := range m.Locals {
		lr.Tick(now)
	}
	if m.Central != nil {
		m.Central.Tick(now)
	}
	if now&31 == 0 {
		for _, iri := range m.IRIs {
			iri.ObserveAt(now)
		}
	}
	m.now++
}

// stepGated is the gated cycle; it returns how many components ticked (0
// means the whole machine was quiescent this cycle and the run loop may
// fast-forward to cachedWake()). There is one body and two executors:
//
//	phase 1  every station with work ticks its CPUs, bus, memory and NC
//	         (tickStation) — inline in ascending station order, or one pool
//	         shard per station under ParallelStations;
//	phase 2  the interconnect: every RI, then every local ring
//	         (tickRingsSerial, the reference order) — or, with a pool and
//	         credit headroom, one shard per ring group (parallel.go);
//	tail     the central ring and the IRI occupancy observation — inline, or
//	         deferred into the next cycle's phase-1 window with a pool.
//
// Station-major equals the component-major reference order because within
// a cycle a station's CPUs, bus, memory and NC touch only that station's
// state: everything they hand to another station goes through the
// station's RI, which ticks in phase 2, after every station. The one
// order-sensitive structure several stations feed in phase 1, the barrier
// arrival list (and the FirstTouch page table), is fed by CPU ticks only,
// and CPU ids are station-major, so ascending stations is ascending ids.
//
// The poll caches make the gate pass cost proportional to the components
// that are (or might be) active rather than to the machine size. A cached
// entry pollX[i] > now means component i's last NextWork report (or an
// influence mark, below) proved it cannot do work this cycle, so the gate
// is one comparison; stationNext[s] / ringNext[r] are the minimum over one
// station's / one ring group's entries, so an idle station or ring costs
// one comparison in all. The caches are invalidated exactly where work can
// be handed over, following the machine's data flow:
//
//	CPU tick      -> its bus this cycle (request pushed to BusOut);
//	bus tick      -> mem/NC this cycle, its RI and local ring this cycle
//	                 (deliveries and RI packetization happen inside the bus
//	                 tick; staged in busFedRing and merged between the
//	                 phases, because two stations of one ring would write
//	                 the same pollLocal entry from different shards), its
//	                 live CPUs next cycle;
//	mem/NC tick   -> its bus next cycle (responses queued to BusOut);
//	RI tick       -> its bus next cycle (reassembled messages to BusOut);
//	local tick    -> member RIs next cycle (slot consumption lands in the
//	                 RI input FIFO), the central ring this cycle (ascending
//	                 packets into the IRI up-FIFO; staged in
//	                 ringFedCentral), itself next cycle;
//	central tick  -> every local ring next cycle (descending packets into
//	                 the IRI down-FIFOs), itself next cycle;
//	barrier fire  -> the released CPU this cycle (fireBarriers runs before
//	                 phase 1).
//
// Everything else a tick does is invisible to NextWork (credit releases
// and FIFO pops can only remove work, so a stale-early cache merely costs
// a re-poll).
func (m *Machine) stepGated() int {
	now := m.now
	m.fireBarriers()
	ticked := 0
	if m.pool != nil {
		ticked += m.stationPhasePooled(now)
	} else {
		for s, next := range m.stationNext {
			if next <= now {
				ticked += m.tickStation(s, now)
			}
		}
	}
	for s, fed := range m.busFedRing {
		if !fed {
			continue
		}
		m.busFedRing[s] = false
		if m.pollRI[s] > now {
			m.pollRI[s] = now
		}
		r := m.ringOf[s]
		if m.pollLocal[r] > now {
			m.pollLocal[r] = now
		}
		if m.ringNext[r] > now {
			m.ringNext[r] = now
		}
	}
	ringWork := false
	for _, next := range m.ringNext {
		if next <= now {
			ringWork = true
			break
		}
	}
	if ringWork {
		if m.pool != nil && m.credits.Headroom() {
			ticked += m.ringPhasePooled(now)
		} else {
			ticked += m.tickRingsSerial(now)
		}
		for r, fed := range m.ringFedCentral {
			if fed {
				m.ringFedCentral[r] = false
				if m.pollCentral > now {
					m.pollCentral = now
				}
			}
		}
	}
	central := false
	if m.Central != nil && m.pollCentral <= now {
		if w := m.Central.NextWork(now); w <= now {
			central = true
			ticked++
		} else {
			m.pollCentral = w
		}
	}
	if central && m.pool != nil {
		// Counted above, so a deferring cycle can never fast-forward away
		// before the tail runs.
		m.tailPending, m.tailAt = true, now
	} else {
		m.tail(now, central)
	}
	m.now++
	return ticked
}

// tickStation runs the gated phase-1 ticks for station s and reports how
// many components ticked. Everything it touches is station-s state (the
// poll-cache entries of station s's components included), which is what
// lets the pool run one call per station concurrently.
func (m *Machine) tickStation(s int, now int64) int {
	ticked := 0
	first := m.g.ProcAt(s, 0)
	for j, c := range m.stationCPUs[s] {
		i := first + j
		if m.pollCPU[i] > now {
			continue
		}
		if w := c.NextWork(now); w <= now {
			c.Tick(now)
			ticked++
			m.pollCPU[i] = now + 1
			if m.pollBus[s] > now {
				m.pollBus[s] = now
			}
		} else {
			m.pollCPU[i] = w
		}
	}
	if m.pollBus[s] <= now {
		b := m.Buses[s]
		if w := b.NextWork(now); w <= now {
			b.Tick(now)
			ticked++
			m.pollBus[s] = now + 1
			if m.pollMem[s] > now {
				m.pollMem[s] = now
			}
			if m.pollNC[s] > now {
				m.pollNC[s] = now
			}
			m.busFedRing[s] = true
			for i := first; i < first+m.g.ProcsPerStation; i++ {
				if m.liveCPU[i] && m.pollCPU[i] > now+1 {
					m.pollCPU[i] = now + 1
				}
			}
		} else {
			m.pollBus[s] = w
		}
	}
	if m.pollMem[s] <= now {
		mem := m.Mems[s]
		if w := mem.NextWork(now); w <= now {
			mem.Tick(now)
			ticked++
			m.pollMem[s] = now + 1
			if m.pollBus[s] > now+1 {
				m.pollBus[s] = now + 1
			}
		} else {
			m.pollMem[s] = w
		}
	}
	if m.pollNC[s] <= now {
		nc := m.NCs[s]
		if w := nc.NextWork(now); w <= now {
			nc.Tick(now)
			ticked++
			m.pollNC[s] = now + 1
			if m.pollBus[s] > now+1 {
				m.pollBus[s] = now + 1
			}
		} else {
			m.pollNC[s] = w
		}
	}
	// Aggregate wake: the earliest cycle any of this station's phase-1
	// components can work again, given no outside influence (an RI tick and
	// a barrier release lower it where they lower the entries it covers).
	next := m.pollBus[s]
	if m.pollMem[s] < next {
		next = m.pollMem[s]
	}
	if m.pollNC[s] < next {
		next = m.pollNC[s]
	}
	for i := first; i < first+m.g.ProcsPerStation; i++ {
		if m.pollCPU[i] < next {
			next = m.pollCPU[i]
		}
	}
	m.stationNext[s] = next
	return ticked
}

// tickRI is the gate-and-tick block of station s's ring interface.
func (m *Machine) tickRI(s int, now int64) int {
	if m.pollRI[s] > now {
		return 0
	}
	ri := m.RIs[s]
	w := ri.NextWork(now)
	if w > now {
		m.pollRI[s] = w
		return 0
	}
	ri.Tick(now)
	m.pollRI[s] = now + 1
	if m.pollBus[s] > now+1 {
		m.pollBus[s] = now + 1
	}
	if m.stationNext[s] > now+1 {
		m.stationNext[s] = now + 1
	}
	return 1
}

// tickLocal is the gate-and-tick block of local ring r.
func (m *Machine) tickLocal(r int, now int64) int {
	if m.pollLocal[r] > now {
		return 0
	}
	lr := m.Locals[r]
	w := lr.NextWork(now)
	if w > now {
		m.pollLocal[r] = w
		return 0
	}
	lr.Tick(now)
	m.pollLocal[r] = now + 1
	for pos := 0; pos < m.g.StationsPerRing; pos++ {
		if s := m.g.StationAt(r, pos); m.pollRI[s] > now+1 {
			m.pollRI[s] = now + 1
		}
	}
	m.ringFedCentral[r] = true
	return 1
}

// setRingNext recomputes ring group r's aggregate wake after its phase-2
// ticks: the minimum over the local ring and its member RIs.
func (m *Machine) setRingNext(r int) {
	next := m.pollLocal[r]
	for pos := 0; pos < m.g.StationsPerRing; pos++ {
		if s := m.g.StationAt(r, pos); m.pollRI[s] < next {
			next = m.pollRI[s]
		}
	}
	m.ringNext[r] = next
}

// tickRingsSerial is the interconnect phase in the reference order: every
// RI, then every local ring. The pooled executor also runs it, on the
// cycles the credit lookahead mask rejects: with some station at its
// credit cap a TryAcquire outcome can depend on releases made by other
// ring groups earlier in the reference order, so only that order is
// authoritative.
func (m *Machine) tickRingsSerial(now int64) int {
	ticked := 0
	for s := range m.RIs {
		ticked += m.tickRI(s, now)
	}
	for r := range m.Locals {
		ticked += m.tickLocal(r, now)
	}
	for r := range m.Locals {
		m.setRingNext(r)
	}
	return ticked
}

// tail finishes cycle now: the central-ring tick when its gate fired, then
// the periodic IRI occupancy observation, which must follow it. The pooled
// executor defers the call (flushTail); now is then the deferring cycle.
func (m *Machine) tail(now int64, central bool) {
	if central {
		m.Central.Tick(now)
		m.pollCentral = now + 1
		for r := range m.Locals {
			if m.pollLocal[r] > now+1 {
				m.pollLocal[r] = now + 1
			}
			if m.ringNext[r] > now+1 {
				m.ringNext[r] = now + 1
			}
		}
	}
	if now&31 == 0 {
		for _, iri := range m.IRIs {
			iri.ObserveAt(now)
		}
	}
}

// cachedWake returns the earliest future cycle at which any component or
// pending barrier release can do work, read from the aggregate wakes (each
// is the minimum of the poll caches it covers, see stepGated). It is only
// meaningful immediately after a fully quiescent stepGated pass: nothing
// ticked, so every cache entry was either freshly polled or already proved
// future, and their minimum is a sound floor on the next event. (A floor,
// not an exact time — influence marks may be one cycle early — so a jump
// may land short and re-step; that costs one gated pass, never
// correctness.)
func (m *Machine) cachedWake() int64 {
	wake := m.pollCentral
	for _, at := range m.stationNext {
		if at < wake {
			wake = at
		}
	}
	for _, at := range m.ringNext {
		if at < wake {
			wake = at
		}
	}
	for _, r := range m.barrier.releases {
		if r.at < wake {
			wake = r.at
		}
	}
	return wake
}

// resetPolls discards every poll cache so the next gated cycle gates every
// component afresh. Load calls it (new runners change CPU state outside the
// loop) and Run calls it on entry.
func (m *Machine) resetPolls() {
	if !m.gated {
		return
	}
	for i := range m.pollCPU {
		m.pollCPU[i] = m.now
	}
	for s := range m.pollBus {
		m.pollBus[s] = m.now
		m.pollMem[s] = m.now
		m.pollNC[s] = m.now
		m.pollRI[s] = m.now
	}
	for r := range m.pollLocal {
		m.pollLocal[r] = m.now
	}
	// A machine without a central ring must not keep re-gating it: the
	// entry is folded into cachedWake unconditionally.
	m.pollCentral = m.now
	if m.Central == nil {
		m.pollCentral = sim.Never
	}
	for s := range m.stationNext {
		m.stationNext[s] = m.now
		m.busFedRing[s] = false
	}
	for r := range m.ringNext {
		m.ringNext[r] = m.now
		m.ringFedCentral[r] = false
	}
}

// step advances one cycle and, when the machine proved quiescent, jumps
// m.now to the next scheduled event. The jump is exact: no component
// ticked, so no state can change until the earliest reported wake-up, and
// every per-cycle statistic is reconciled lazily. Jumps never pass the
// watchdog deadline, so the no-progress check in Run samples at exactly
// the cycles the naive loop samples — including a sim.Never wake on a
// fully wedged machine, which must land on the deadline rather than spin.
func (m *Machine) step() {
	if !m.gated {
		m.stepNaive()
		return
	}
	if m.stepGated() == 0 {
		wake := m.cachedWake()
		if m.watchdogAt > m.now && wake > m.watchdogAt {
			wake = m.watchdogAt
		}
		// The external driver must observe every scheduled drive cycle:
		// clamp like the watchdog so the fast-forward lands on driveAt
		// instead of jumping over it. >= because stepGated has already
		// advanced m.now — a drive due exactly now must suppress the jump
		// entirely (wake becomes m.now) so Run fires it before moving on.
		if m.onDrive != nil && m.driveAt >= m.now && wake > m.driveAt {
			wake = m.driveAt
		}
		if wake > m.now && wake != sim.Never {
			m.FastForwarded.Add(wake - m.now)
			m.now = wake
		}
	}
}

// SetDriver arranges for fn to run at a serial point of the run loop
// every `every` cycles, starting at the next step, before that cycle's
// components tick. Drives are part of the simulated experiment, not
// observation: unlike the sampler, they fire at *exactly* the same cycles
// under every cycle loop (the quiescence fast-forward clamps to the next
// drive), so a driver that mutates state visible to workload goroutines —
// the serving layer's dispatcher — keeps the machine bit-identical across
// naive/scheduled/parallel. Pass fn == nil to detach.
func (m *Machine) SetDriver(every int64, fn func(*Machine)) {
	if every <= 0 {
		every = 1
	}
	m.driveEvery = every
	m.driveAt = m.now
	m.onDrive = fn
}

// SetServeReport registers the serving layer's results provider; Results
// calls it to fill the Serve section. Pass nil to detach.
func (m *Machine) SetServeReport(fn func() *ServeResults) { m.serveReport = fn }

// Run executes until every loaded program finishes, returning the cycle
// count of the parallel section (max completion time). It panics if the
// deadlock watchdog trips.
func (m *Machine) Run() int64 {
	start := m.now
	m.resetPolls()
	if m.pool != nil {
		defer m.pool.Stop() // park the workers between runs (and on panic)
	}
	// Gate on the CPUs, not the runners: a runner reports Done as soon as
	// the RefDone sentinel is fetched, but the CPU may still owe its
	// coalesced trailing compute cycles.
	active := func() bool {
		for i, r := range m.runners {
			if r != nil && !m.CPUs[i].Done() {
				return true
			}
		}
		return false
	}
	lastRefs, lastAt := int64(-1), m.now
	m.rebalanceAt = m.now + rebalanceEvery
	if m.p.DeadlockCycles > 0 {
		m.watchdogAt = lastAt + m.p.DeadlockCycles
	}
	// Per-transaction forward-progress monitor state, sampled on the same
	// watchdog schedule (the quiescence fast-forward clamps to watchdogAt,
	// so every loop samples at identical cycles and aborts identically).
	var starveRefs []int64
	var starveWins []int
	if m.p.StarvationWindows > 0 {
		starveRefs = make([]int64, len(m.CPUs))
		starveWins = make([]int, len(m.CPUs))
	}
	for active() {
		if m.onDrive != nil && m.now >= m.driveAt {
			// Drive before the cycle's step: the driver sees the machine at
			// the top of cycle now, before any component ticks, exactly as
			// it would under the naive loop. A deferred central tick from
			// the previous cycle must land first.
			m.flushTail()
			m.onDrive(m)
			m.driveAt = m.now + m.driveEvery
		}
		m.step()
		if m.Cfg.CheckInvariants {
			q := m.Quiesced()
			if q && !m.wasQuiesced {
				if err := m.CheckCoherence(); err != nil {
					panic(fmt.Sprintf("core: invariant violation at cycle %d: %v", m.now, err))
				}
			}
			m.wasQuiesced = q
		}
		if m.onSample != nil && m.now >= m.sampleAt {
			m.flushTail()
			m.onSample(m)
			m.sampleAt = m.now + m.sampleEvery
		}
		if m.now >= m.rebalanceAt {
			// Level the free lists so cross-pool migration cannot drain any
			// pool below its steady-state working set mid-run.
			m.flushTail()
			m.rebalancePools()
			m.rebalanceAt = m.now + rebalanceEvery
		}
		if m.p.DeadlockCycles > 0 && m.now-lastAt >= m.p.DeadlockCycles {
			refs := m.totalRefs()
			if refs == lastRefs {
				panic(fmt.Sprintf("core: no progress for %d cycles at cycle %d\n%s",
					m.p.DeadlockCycles, m.now, m.dumpState()))
			}
			// Retry budget: one reference accumulating this many
			// consecutive NAKs is wedged even if the rest of the machine
			// moves (a permanently locked home line, a retry convoy).
			if m.p.MaxRetries > 0 {
				for i, c := range m.CPUs {
					if c.Retries() > m.p.MaxRetries {
						panic(fmt.Sprintf("core: cpu[%d] exceeded the retry budget (%d consecutive NAKs > %d) at cycle %d\n%s",
							i, c.Retries(), m.p.MaxRetries, m.now, m.dumpState()))
					}
				}
			}
			// Starvation: a processor parked in a memory-wait state with
			// no completed reference for StarvationWindows consecutive
			// windows while the machine as a whole progressed (the global
			// no-progress check above did not fire).
			if m.p.StarvationWindows > 0 {
				for i, c := range m.CPUs {
					r := c.Stats.Reads.Value() + c.Stats.Writes.Value()
					if c.Stalled() && r == starveRefs[i] {
						starveWins[i]++
						if starveWins[i] >= m.p.StarvationWindows {
							panic(fmt.Sprintf("core: cpu[%d] starved for %d watchdog windows (%d cycles) at cycle %d\n%s",
								i, starveWins[i], int64(starveWins[i])*m.p.DeadlockCycles, m.now, m.dumpState()))
						}
					} else {
						starveWins[i] = 0
					}
					starveRefs[i] = r
				}
			}
			lastRefs, lastAt = refs, m.now
			m.watchdogAt = lastAt + m.p.DeadlockCycles
		}
	}
	end := int64(0)
	for i, r := range m.runners {
		if r != nil && m.CPUs[i].FinishedAt() > end {
			end = m.CPUs[i].FinishedAt()
		}
	}
	m.Drain()
	if m.Cfg.CheckInvariants {
		if err := m.CheckCoherence(); err != nil {
			panic(fmt.Sprintf("core: invariant violation after drain at cycle %d: %v", m.now, err))
		}
	}
	return end - start
}

// Drain runs the machine until all queues, rings and controllers are
// empty, so post-run invariant checks see a quiesced system.
func (m *Machine) Drain() {
	limit := m.now + 10_000_000
	for !m.Quiesced() {
		m.step()
		if m.now > limit {
			panic("core: machine failed to drain\n" + m.dumpState())
		}
	}
}

// SyncStats reconciles every lazily-accounted statistic (stall counters,
// utilization, queue-occupancy sampling) through the last completed cycle.
// Idempotent; a no-op on the naive loop. Results() calls it before
// snapshotting.
func (m *Machine) SyncStats() {
	m.flushTail() // the deferred central tick belongs to the last cycle
	limit := m.now - 1
	if limit < 0 {
		return
	}
	for _, c := range m.CPUs {
		c.SyncStats(limit)
	}
	for _, b := range m.Buses {
		b.SyncStats(limit)
	}
	for _, mem := range m.Mems {
		mem.SyncStats(limit)
	}
	for _, nc := range m.NCs {
		nc.SyncStats(limit)
	}
	for _, ri := range m.RIs {
		ri.SyncStats(limit)
	}
	for _, iri := range m.IRIs {
		iri.SyncStats(limit)
	}
	for _, lr := range m.Locals {
		lr.SyncStats(limit)
	}
	if m.Central != nil {
		m.Central.SyncStats(limit)
	}
}

// StationHealth is one station's cumulative retry-pressure counters, the
// raw material for the serving layer's health monitor: CPU NAK retries
// (hot/locked lines, frozen directories) plus NC loss-timeout re-issues
// (dropped packets, degraded rings).
type StationHealth struct {
	NAKRetries      int64
	TimeoutReissues int64
}

// SampleStationHealth fills dst (grown as needed) with per-station
// cumulative health counters. It reconciles lazy statistics first, so
// when called at a SetDriver serial point — which fires at identical
// cycles under every loop — the sample is loop-invariant and safe to
// feed back into simulated decisions (the serving circuit breaker).
func (m *Machine) SampleStationHealth(dst []StationHealth) []StationHealth {
	m.SyncStats()
	n := m.g.Stations()
	if cap(dst) < n {
		dst = make([]StationHealth, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = StationHealth{}
	}
	for i, c := range m.CPUs {
		dst[m.g.StationOfProc(i)].NAKRetries += c.Stats.NAKRetries.Value()
	}
	for s, nc := range m.NCs {
		dst[s].TimeoutReissues += nc.Stats.TimeoutReissues.Value()
	}
	return dst
}

// Quiesced reports whether no messages remain anywhere in the machine and
// no memory line is still locked by an unfinished lock transaction.
func (m *Machine) Quiesced() bool {
	m.flushTail() // a pending central tick is in-flight work
	if !m.deliveryQuiet() {
		return false
	}
	for _, mem := range m.Mems {
		if mem.PendingLocks() > 0 {
			return false
		}
	}
	return true
}

// deliveryQuiet reports whether no messages remain anywhere in the
// machine: every controller idle, every queue empty, every ring drained.
// Unlike Quiesced it ignores held memory locks — a locked line is passive
// state, not a message source: nothing emanates from it until some CPU
// pushes a new request, and that request pays the full grant-plus-
// directory-stage path like any other. The fast-hit tier-3 horizon
// therefore gates on this predicate (lock-heavy workloads would otherwise
// never see a deep window), while fast-forwarding and the public API keep
// the stricter Quiesced.
func (m *Machine) deliveryQuiet() bool {
	for _, mem := range m.Mems {
		if !mem.Idle() {
			return false
		}
	}
	for _, nc := range m.NCs {
		if !nc.Idle() {
			return false
		}
	}
	for _, ri := range m.RIs {
		if !ri.Idle() {
			return false
		}
	}
	for _, iri := range m.IRIs {
		if !iri.Idle() {
			return false
		}
	}
	for _, lr := range m.Locals {
		if !lr.Drained() {
			return false
		}
	}
	if m.Central != nil && !m.Central.Drained() {
		return false
	}
	for _, b := range m.Buses {
		if !b.Idle(m.now) {
			return false
		}
	}
	for _, c := range m.CPUs {
		if !c.BusOut().Empty() {
			return false
		}
	}
	return true
}

// quiescedThisCycle memoizes deliveryQuiet() per cycle for the fast-hit
// tier-3 horizon, which may consult it once per handshake: every deep-idle
// window opened during the same cycle shares a single machine scan. A true
// memo stays sound for the rest of the cycle, including for a later
// station's CPU that reuses it after lower stations' buses and controllers
// have ticked (the gated cycle is station-major): with no message anywhere
// when it was taken, those ticks had nothing to move, so any activity since
// is CPU-initiated at or after the current cycle, and the tier-3 bound
// reads each CPU's wake live (a CPU that just went active contributes
// wake <= now), so the two-transfer argument still covers it however far
// the request has travelled. A memo that turns stale in the other
// direction (machine drained mid-cycle) only under-reports quiescence,
// which merely narrows the window to tier 2.
func (m *Machine) quiescedThisCycle() bool {
	if m.quiescedAt != m.now {
		m.quiescedAt = m.now
		m.quiescedOK = m.deliveryQuiet()
	}
	return m.quiescedOK
}

func (m *Machine) totalRefs() int64 {
	var n int64
	for _, c := range m.CPUs {
		n += c.Stats.Reads.Value() + c.Stats.Writes.Value()
	}
	return n
}

// dumpState renders the structured stuck-transaction report for abort
// messages (see progress.go).
func (m *Machine) dumpState() string { return m.Progress().String() }
