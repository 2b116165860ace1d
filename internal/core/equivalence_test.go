package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// equivScenario is one workload run under both cycle loops.
type equivScenario struct {
	name string
	cfg  func() Config
	load func(m *Machine) []proc.Program
}

// equivScenarios covers the structurally distinct activity patterns: dense
// sharing traffic (little to skip), compute-heavy phases (long quiescent
// stretches the scheduler fast-forwards), barrier ping-pong (machine-level
// wake-ups), special functions, and every protocol-option combination the
// quick suite exercises.
func equivScenarios() []equivScenario {
	var scenarios []equivScenario

	mixed := func(geom topo.Geometry, opts uint8, stream uint64) equivScenario {
		return equivScenario{
			name: fmt.Sprintf("mixed/g%dx%dx%d-opts%d-s%d",
				geom.ProcsPerStation, geom.StationsPerRing, geom.Rings, opts, stream),
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Geom = geom
				cfg.Params.L2Lines = 64
				cfg.Params.NCLines = 128
				cfg.Params.SCLocking = opts&1 != 0
				cfg.Params.DeadlockCycles = 2_000_000
				return cfg
			},
			load: func(m *Machine) []proc.Program {
				const lines, perProc = 32, 40
				base := m.AllocLines(lines)
				counter := m.AllocLines(1)
				prog := func(c *proc.Ctx) {
					rng := sim.NewRNG(stream<<16 | uint64(c.ID) | 1)
					for i := 0; i < perProc; i++ {
						line := base + uint64(rng.Intn(lines))*64
						switch rng.Intn(8) {
						case 0, 1, 2, 3:
							c.Read(line)
						case 4, 5:
							c.Write(line, uint64(c.ID)<<32|uint64(i))
						case 6:
							c.FetchAdd(counter, 1)
						case 7:
							c.Prefetch(line)
						}
					}
					c.Barrier()
				}
				progs := make([]proc.Program, m.Geometry().Procs())
				for i := range progs {
					progs[i] = prog
				}
				return progs
			},
		}
	}

	computeHeavy := equivScenario{
		// Long compute bursts between references: nearly every cycle is
		// quiescent, so this is the fast-forward stress case.
		name: "compute-heavy",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			shared := m.AllocLines(8)
			prog := func(c *proc.Ctx) {
				for i := 0; i < 6; i++ {
					c.Compute(5_000 + int64(c.ID)*137)
					c.Write(shared+uint64((c.ID+i)%8)*64, uint64(i))
					c.Read(shared + uint64(i%8)*64)
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	barrierPingPong := equivScenario{
		// Repeated barriers with skewed arrival: exercises the machine-level
		// barrier-release wake-ups and the NAK retry path under contention.
		name: "barrier-pingpong",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 1}
			cfg.Params.L2Lines = 32
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			hot := m.AllocLines(1)
			prog := func(c *proc.Ctx) {
				for round := 0; round < 5; round++ {
					c.Compute(int64(c.ID) * 301)
					c.FetchAdd(hot, 1)
					c.Barrier()
				}
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	special := equivScenario{
		// Kill special function + locks: covers sWaitInterrupt wake-ups and
		// the test-and-set retry loop.
		name: "kill-and-locks",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			lock := m.AllocLines(1)
			data := m.AllocLines(4)
			prog := func(c *proc.Ctx) {
				for i := 0; i < 4; i++ {
					c.AcquireLock(lock)
					v := c.Read(data)
					c.Write(data, v+1)
					c.ReleaseLock(lock)
				}
				c.Barrier()
				if c.ID == 0 {
					c.Kill(data + 64)
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	// Paper-size caches (64 L2 pages, 256 NC pages each) and lines a tag
	// page apart: every fill lands on a page nobody has written yet, so
	// under the parallel loop pages are first allocated from phase-1
	// workers of different stations at once while the untouched rest of
	// every store still aliases the shared zero page — the case the -race
	// run of this suite must keep clean.
	firstTouch := equivScenario{
		name: "first-touch-pages",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			const lines, perProc, stride = 24, 40, sim.PageLen + 1
			base := m.AllocLines(lines * stride)
			prog := func(c *proc.Ctx) {
				rng := sim.NewRNG(0xfeed<<16 | uint64(c.ID) | 1)
				for i := 0; i < perProc; i++ {
					line := base + uint64(rng.Intn(lines))*stride*64
					if rng.Intn(3) == 0 {
						c.Write(line, uint64(c.ID)<<32|uint64(i))
					} else {
						c.Read(line)
					}
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	// A multi-ring machine with the fast-hit path on (DefaultConfig),
	// built so that ties are the rule: every round opens with all CPUs
	// released from a barrier in the same cycle, each CPU writes its own
	// line of one fresh page, re-reads it (hits the fast path resolves
	// under the machine-quiet horizon, which reads other stations
	// mid-cycle), and after a fixed compute all arrive at the closing
	// barrier in the same cycle. The gated cycle is station-major, the
	// naive one component-major: this is the scenario where only ascending
	// CPU order of the barrier arrival list keeps the two identical.
	// TestBarrierTiesScenario checks the ties really occur.
	barrierTies := equivScenario{
		name: "barrier-ties",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			procs := m.Geometry().Procs()
			ps := uint64(m.Params().PageSize)
			base := (m.Alloc((procs+1)*int(ps)) + ps - 1) &^ (ps - 1)
			prog := func(c *proc.Ctx) {
				for round := 0; round < procs; round++ {
					line := base + uint64(round)*ps + uint64(c.ID)*64
					c.Write(line, uint64(round)<<8|uint64(c.ID))
					for i := 0; i < 4; i++ {
						c.Read(line)
					}
					c.Barrier()
					c.Compute(40)
					c.Barrier()
				}
			}
			progs := make([]proc.Program, procs)
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	// One nonsinkable credit per station instead of the prototype's 16, and
	// every reference a miss to a line homed on another station: each RI
	// holds its next request until the previous one has been consumed
	// somewhere else in the machine, so most cycles have a station at its
	// cap and a TryAcquire there succeeds or fails by whether the release —
	// made by an RI of another ring group — comes earlier in the reference
	// order of that cycle. The 5-cycle unpack latency is what lets the two
	// meet: with the default 6 on a 3-cycle ring clock every RI release
	// falls one cycle after a ring edge and no order of the ring phase could
	// change an outcome (ticking ring-group-major instead of all RIs first
	// passes every other scenario and fails this one).
	// TestCreditCapScenario checks the cap really binds.
	creditCap := equivScenario{
		name: "credit-cap",
		cfg: func() Config {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2}
			cfg.Params.L2Lines = 64
			cfg.Params.NCLines = 128
			cfg.Params.MaxNonsinkable = 1
			cfg.Params.RIUnpackCycles = 5
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		},
		load: func(m *Machine) []proc.Program {
			const lines, perProc = 256, 64
			g := m.Geometry()
			per := lines / g.Stations()
			homed := make([]uint64, g.Stations())
			for s := range homed {
				homed[s] = m.AllocAt(s, per*m.Params().LineSize)
			}
			prog := func(c *proc.Ctx) {
				own := g.StationOfProc(c.ID)
				for i := 0; i < perProc; i++ {
					s := (own + 1 + i%(g.Stations()-1)) % g.Stations()
					line := homed[s] + uint64((i+c.ID)%per)*uint64(m.Params().LineSize)
					if i%3 == 0 {
						c.Write(line, uint64(c.ID)<<32|uint64(i))
					} else {
						c.Read(line)
					}
				}
				c.Barrier()
			}
			progs := make([]proc.Program, g.Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		},
	}

	scenarios = append(scenarios,
		mixed(topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}, 0, 11),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}, 1, 12),
		mixed(topo.Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2}, 0, 13),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3}, 1, 14),
		mixed(topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}, 1, 15),
		computeHeavy,
		barrierPingPong,
		special,
		firstTouch,
		barrierTies,
		creditCap,
	)
	return scenarios
}

// equivScenarioNamed returns the scenario a premise test is about.
func equivScenarioNamed(t *testing.T, name string) equivScenario {
	t.Helper()
	for _, sc := range equivScenarios() {
		if sc.name == name {
			return sc
		}
	}
	t.Fatalf("no equivalence scenario %q", name)
	return equivScenario{}
}

// TestBarrierTiesScenario checks the premise of the barrier-ties scenario
// on the reference loop: some barrier collects arrivals from different
// stations in one cycle. Without those ties the scenario would not tell a
// station-major cycle from any other order.
func TestBarrierTiesScenario(t *testing.T) {
	sc := equivScenarioNamed(t, "barrier-ties")
	m, err := newLoop(sc.cfg(), "naive")
	if err != nil {
		t.Fatal(err)
	}
	arrivals := map[int64]map[int]bool{} // barrier cycle -> stations arriving
	for _, c := range m.CPUs {
		c.OnBarrier = func(c *proc.CPU, now int64) {
			if arrivals[now] == nil {
				arrivals[now] = map[int]bool{}
			}
			arrivals[now][c.Station] = true
			m.barrierArrive(c, now)
		}
	}
	m.Load(sc.load(m))
	m.Run()
	tiedBarriers := 0
	for _, stations := range arrivals {
		if len(stations) > 1 {
			tiedBarriers++
		}
	}
	if tiedBarriers < 3 {
		t.Errorf("scenario lost its ties: %d barriers reached from several stations in one cycle", tiedBarriers)
	}
}

// TestCreditCapScenario checks the premise of the credit-cap scenario on
// the reference loop: on a large share of cycles some station has its only
// nonsinkable credit in the network. Without that the scenario would not
// tell a ring phase that reorders TryAcquire against same-cycle releases
// from one that does not.
func TestCreditCapScenario(t *testing.T) {
	sc := equivScenarioNamed(t, "credit-cap")
	cfg := sc.cfg()
	m, err := newLoop(cfg, "naive")
	if err != nil {
		t.Fatal(err)
	}
	var cycles, atCap int64
	m.SetSampler(1, func(m *Machine) {
		cycles++
		for st := 0; st < m.g.Stations(); st++ {
			if m.credits.InFlight(st) >= cfg.Params.MaxNonsinkable {
				atCap++
				break
			}
		}
	})
	m.Load(sc.load(m))
	m.Run()
	if atCap*3 < cycles {
		t.Errorf("scenario lost its pressure: some station at its credit cap on only %d of %d cycles", atCap, cycles)
	}
	t.Logf("%d cycles, some station at its credit cap on %d", cycles, atCap)
}

// equivLoops are the cycle-loop variants every scenario must agree across:
// the test-only reference order (oracle_test.go) and both executors, the
// inline one and the pooled one (Config.ParallelStations). Every loop axis
// of this package's tests ranges over this list, or over equivLoops[1:]
// for the two executors.
var equivLoops = []string{"naive", "scheduled", "parallel"}

// equivRun is one run of a scenario: its cycle loop, whether the
// front-end hit fast path is on, whether it is traced, and its fault
// schedule (nil for none).
type equivRun struct {
	loop   string
	fast   bool
	traced bool
	fault  *faultSchedule
}

func (r equivRun) String() string {
	s := fmt.Sprintf("%s/fast=%v", r.loop, r.fast)
	if r.traced {
		s += "/traced"
	}
	return s
}

// runCase executes one scenario as r describes, with coherence checked at
// every quiescence and at the end, and returns the machine, the Run()
// return value and, when traced, the canonical text trace.
func runCase(t *testing.T, sc equivScenario, r equivRun) (*Machine, int64, []byte) {
	t.Helper()
	cfg := sc.cfg()
	cfg.CheckInvariants = true
	cfg.FastHits = r.fast
	if fs := r.fault; fs != nil {
		cfg.FaultSpec = fs.spec
		cfg.FaultSeed = fs.seed
		cfg.Params.RetryBackoff = true
		cfg.Params.RetryJitterSeed = fs.seed
	}
	m, err := newLoop(cfg, r.loop)
	if err != nil {
		t.Fatalf("%s (%s): %v", sc.name, r, err)
	}
	if r.traced {
		m.EnableTrace(1 << 14)
	}
	m.Load(sc.load(m))
	cycles := m.Run()
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s (%s): coherence: %v", sc.name, r, err)
	}
	if !r.traced {
		return m, cycles, nil
	}
	var buf bytes.Buffer
	if err := m.Tracer().WriteText(&buf); err != nil {
		t.Fatalf("%s (%s): WriteText: %v", sc.name, r, err)
	}
	return m, cycles, buf.Bytes()
}

// runSnapshot is what compareRuns holds two finished machines to: cycle
// counts, per-CPU completion times and stats, the full Results snapshot,
// and the per-component queue and utilization statistics. A snapshot
// keeps none of the machine, so a reference run can be held without it.
type runSnapshot struct {
	Cycles, Now     int64
	CPUFinishedAt   []int64
	CPUStats        []proc.Stats
	Results         Results
	RIQueues        [][3]sim.QueueStats // sinkable, nonsinkable, input
	MemInQ, NCInQ   []sim.QueueStats
	BusUtil         []float64
	BusTransfers    []int64
	LocalRingUtil   []float64
	LocalRingStalls []int64
	CentralRingUtil float64
}

func snapshotRun(m *Machine, cycles int64) runSnapshot {
	s := runSnapshot{Cycles: cycles, Now: m.Now(), Results: m.Results()}
	for _, c := range m.CPUs {
		s.CPUFinishedAt = append(s.CPUFinishedAt, c.FinishedAt())
		s.CPUStats = append(s.CPUStats, c.Stats)
	}
	for _, ri := range m.RIs {
		var q [3]sim.QueueStats
		q[0], q[1], q[2] = ri.QueueStats()
		s.RIQueues = append(s.RIQueues, q)
	}
	for _, mem := range m.Mems {
		s.MemInQ = append(s.MemInQ, mem.InQStats())
	}
	for _, nc := range m.NCs {
		s.NCInQ = append(s.NCInQ, nc.InQStats())
	}
	for _, b := range m.Buses {
		s.BusUtil = append(s.BusUtil, b.Util.Value())
		s.BusTransfers = append(s.BusTransfers, b.Transfers)
	}
	for _, lr := range m.Locals {
		s.LocalRingUtil = append(s.LocalRingUtil, lr.Util.Value())
		s.LocalRingStalls = append(s.LocalRingStalls, lr.Stalls)
	}
	if m.Central != nil {
		s.CentralRingUtil = m.Central.Util.Value()
	}
	return s
}

// compareRuns checks bit-identity of two finished machines.
func compareRuns(t *testing.T, aName, bName string, ma, mb *Machine, cyclesA, cyclesB int64) {
	t.Helper()
	compareSnapshots(t, aName, bName, snapshotRun(ma, cyclesA), snapshotRun(mb, cyclesB))
}

// compareSnapshots reports every field of two snapshots that differs,
// and every differing element of a per-component field.
func compareSnapshots(t *testing.T, aName, bName string, a, b runSnapshot) {
	t.Helper()
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		name := va.Type().Field(i).Name
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice && fa.Len() == fb.Len() {
			for j := 0; j < fa.Len(); j++ {
				if ea, eb := fa.Index(j).Interface(), fb.Index(j).Interface(); !reflect.DeepEqual(ea, eb) {
					t.Errorf("%s[%d] diverges:\n%s: %+v\n%s: %+v", name, j, aName, ea, bName, eb)
				}
			}
		} else if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			t.Errorf("%s diverges:\n%s: %+v\n%s: %+v", name, aName, fa.Interface(), bName, fb.Interface())
		}
	}
}

// firstTraceDiff renders the first differing line of two text traces.
func firstTraceDiff(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	for i := 0; i < min(len(la), len(lb)); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("traces differ in length: %d vs %d lines", len(la), len(lb))
}

// The equivalence matrix the gated cycle and the front-end hit fast path
// are judged by. Its rows are every scenario fault-free and every fault
// scenario under the drop-dup and everything schedules (faults are
// deterministic in simulated time, so they land on the same packets at the
// same cycles in every run). Each row makes one reference run — the
// reference order, fast hits off, traced — and holds every other run to
// it: cycle counts, per-CPU completion times and every monitored statistic
// must match, and a traced run must write a byte-identical trace. Agreement
// with the one reference implies every pairwise agreement: between loops,
// fast hits on and off, and traced and untraced runs (tracing is
// non-intrusive). Traces agree only if events are emitted on real work
// alone, never from idle ticks the executors skip, and their merge key is
// loop-invariant.
//
// Five suites cut the matrix's cells among them, each cell in exactly one,
// and share each row's reference run:
//
//	suite                          rows        cells (fast hits on)
//	TestFastHitsEquivalence        fault-free  reference order, traced
//	TestFastHitsFaultedEquivalence faulted     reference order, traced
//	TestTraceEquivalence           fault-free  both executors, traced
//	TestFaultTraceEquivalence      faulted     both executors, traced
//	TestSchedulerEquivalence       all         both executors, untraced

// matrixCase is one row of the equivalence matrix.
type matrixCase struct {
	name  string
	sc    equivScenario
	fault *faultSchedule
}

// faultFreeCases are the matrix rows without faults, one per scenario.
func faultFreeCases() []matrixCase {
	var cases []matrixCase
	for _, sc := range equivScenarios() {
		cases = append(cases, matrixCase{sc.name, sc, nil})
	}
	return cases
}

// faultedCases are the matrix rows under faults: every fault scenario
// under the drop-dup and everything schedules.
func faultedCases(t *testing.T) []matrixCase {
	var cases []matrixCase
	for _, fs := range faultSchedules() {
		if fs.name != "drop-dup" && fs.name != "everything" {
			continue
		}
		for _, sc := range faultScenarios(t) {
			cases = append(cases, matrixCase{fs.name + "/" + sc.name, sc, &fs})
		}
	}
	return cases
}

// matrixRef is a row's reference run.
type matrixRef struct {
	snap  runSnapshot
	trace []byte
}

// matrixRefs holds each row's reference run once made, as a snapshot and
// a trace, so the five suites share it. The tests of this package run one at a time, so the
// map needs no lock.
var matrixRefs = map[string]matrixRef{}

// matrixSlice runs every row of cases as a subtest of t and holds each of
// runs, under the row's faults, to the row's reference run.
func matrixSlice(t *testing.T, cases []matrixCase, runs []equivRun) {
	refRun := equivRun{loop: equivLoops[0], traced: true}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, ok := matrixRefs[c.name]
			if !ok {
				r := refRun
				r.fault = c.fault
				m, cycles, tr := runCase(t, c.sc, r)
				ref = matrixRef{snapshotRun(m, cycles), tr}
				if len(ref.trace) == 0 {
					t.Fatal("the reference run produced an empty trace")
				}
				matrixRefs[c.name] = ref
			}
			for _, r := range runs {
				r.fault = c.fault
				m, cycles, tr := runCase(t, c.sc, r)
				compareSnapshots(t, refRun.String(), r.String(), ref.snap, snapshotRun(m, cycles))
				if r.traced && !bytes.Equal(ref.trace, tr) {
					t.Errorf("trace under %s diverges from the reference: %s", r, firstTraceDiff(ref.trace, tr))
				}
				if r.loop == "scheduled" && c.sc.name == "compute-heavy" && m.FastForwarded.Value() == 0 {
					t.Errorf("compute-heavy scenario fast-forwarded 0 cycles under %s; scheduler not engaging", r)
				}
			}
		})
	}
}

// executorRuns are the matrix cells of fast hits on under both executors.
func executorRuns(traced bool) []equivRun {
	var runs []equivRun
	for _, loop := range equivLoops[1:] {
		runs = append(runs, equivRun{loop: loop, fast: true, traced: traced})
	}
	return runs
}

// fastHitRuns is the matrix cell of fast hits on under the reference
// order: the fast path alone against the reference.
var fastHitRuns = []equivRun{{loop: equivLoops[0], fast: true, traced: true}}

// TestSchedulerEquivalence holds both executors of the gated cycle,
// untraced, to the reference order on every row of the matrix.
func TestSchedulerEquivalence(t *testing.T) {
	matrixSlice(t, append(faultFreeCases(), faultedCases(t)...), executorRuns(false))
}

// TestTraceEquivalence holds the traces of both executors to the
// reference order's on every fault-free row.
func TestTraceEquivalence(t *testing.T) {
	matrixSlice(t, faultFreeCases(), executorRuns(true))
}

// TestFaultTraceEquivalence holds the traces of both executors to the
// reference order's on every faulted row.
func TestFaultTraceEquivalence(t *testing.T) {
	matrixSlice(t, faultedCases(t), executorRuns(true))
}

// TestFastHitsEquivalence holds the front-end hit fast path to the
// reference run with it off on every fault-free row; the executor cells
// run it on too.
func TestFastHitsEquivalence(t *testing.T) {
	matrixSlice(t, faultFreeCases(), fastHitRuns)
}

// TestFastHitsFaultedEquivalence holds the fast path to the reference on
// every faulted row: dropped and duplicated packets, module freezes and
// ring degradation reshuffle when invalidations and interventions land,
// which is exactly the traffic the delivery horizon must fence.
func TestFastHitsFaultedEquivalence(t *testing.T) {
	matrixSlice(t, faultedCases(t), fastHitRuns)
}

// TestTraceNonIntrusive verifies that sampling mid-run through the
// telemetry hook, on a traced run, leaves the simulation untouched:
// identical cycle counts and statistics versus an untraced, unsampled run.
// (Tracing alone is held to that by the matrix's untraced runs.)
func TestTraceNonIntrusive(t *testing.T) {
	sc := equivScenarioNamed(t, "mixed/g2x2x2-opts1-s12") // a hierarchical mixed-traffic scenario
	samples := 0
	sampled := sc
	sampled.load = func(m *Machine) []proc.Program {
		m.SetSampler(500, func(m *Machine) {
			samples++
			_ = m.Results() // force the idempotent mid-run reconciliation
			_ = m.PhaseTransactions()
		})
		return sc.load(m)
	}
	mp, cp, _ := runCase(t, sc, equivRun{loop: "scheduled", fast: true})
	ms, cs, _ := runCase(t, sampled, equivRun{loop: "scheduled", fast: true, traced: true})
	compareRuns(t, "untraced", "traced+sampled", mp, ms, cp, cs)
	if samples == 0 {
		t.Error("sampler never fired")
	}
}

// TestSchedulerEquivalenceQuick re-runs the property-test workload shape
// under both loops across random seeds, comparing full result sets.
func TestSchedulerEquivalenceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestSchedulerEquivalence in -short mode")
	}
	geoms := []topo.Geometry{
		{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1},
		{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2},
		{ProcsPerStation: 2, StationsPerRing: 3, Rings: 3},
	}
	for seed := uint64(0); seed < 6; seed++ {
		sc := equivScenario{name: fmt.Sprintf("quick-%d", seed)}
		g := geoms[int(seed)%len(geoms)]
		opts := uint8(seed * 3)
		sc.cfg = func() Config {
			cfg := DefaultConfig()
			cfg.Geom = g
			cfg.Params.L2Lines = []int{32, 64, 256}[int(seed)%3]
			cfg.Params.NCLines = []int{128, 512}[int(seed)%2]
			cfg.Params.SCLocking = opts&1 != 0
			cfg.Params.DeadlockCycles = 2_000_000
			return cfg
		}
		sc.load = func(m *Machine) []proc.Program {
			const lines, perProc = 48, 60
			base := m.AllocLines(lines)
			counter := m.AllocLines(1)
			prog := func(c *proc.Ctx) {
				rng := sim.NewRNG(seed<<20 | uint64(c.ID) | 1)
				for i := 0; i < perProc; i++ {
					line := base + uint64(rng.Intn(lines))*64
					switch rng.Intn(8) {
					case 0, 1, 2, 3:
						c.Read(line)
					case 4, 5:
						c.Write(line, uint64(c.ID)<<32|uint64(i))
					case 6:
						c.FetchAdd(counter, 1)
					case 7:
						c.Prefetch(line)
					}
				}
				c.Barrier()
			}
			progs := make([]proc.Program, m.Geometry().Procs())
			for i := range progs {
				progs[i] = prog
			}
			return progs
		}
		t.Run(sc.name, func(t *testing.T) {
			mn, cyclesN, _ := runCase(t, sc, equivRun{loop: equivLoops[0], fast: true})
			for _, loop := range equivLoops[1:] {
				m, cycles, _ := runCase(t, sc, equivRun{loop: loop, fast: true})
				compareRuns(t, equivLoops[0], loop, mn, m, cyclesN, cycles)
			}
		})
	}
}
