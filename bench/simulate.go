package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"numachine/internal/core"
	"numachine/internal/experiments"
	"numachine/internal/serve"
	"numachine/internal/workloads"
)

// sampleEvery is the Machine.SetSampler period of the traced run, in
// simulated cycles.
const sampleEvery = 4096

// runEnv is what every simulation of a run shares.
type runEnv struct {
	seed       uint64
	gomaxprocs int     // host.gomaxprocs: min(nproc, maxProcs)
	multiP     bool    // the traced run's extra pass: every simulation at host.gomaxprocs
	tr         *tracer // nil in the untraced run
}

// procsFor is the GOMAXPROCS policy, per simulation: as many Ps as its
// cycle loop can use. The serial loops alternate between the machine's
// goroutine and one runner per simulated CPU, never two at once, so
// they get one P; a second only lets the Go scheduler migrate runners
// between threads, which costs about 2x in host time and, on a shared
// 2-vCPU host, made run-to-run spread 8-18% against 4-6% (README,
// "GOMAXPROCS policy"). The parallel loop gets host.gomaxprocs. What a
// numasim user pays for the default GOMAXPROCS is core.multi_p_penalty.
func (env *runEnv) procsFor(spec *simSpec) int {
	if spec.Parallel || env.multiP {
		return env.gomaxprocs
	}
	return 1
}

// heapPad is the seed's only effect on a kernel simulation: that many
// cache lines are allocated before workloads.Build, shifting the
// page-to-station map and the cache-set alignment of every structure the
// kernel allocates. Seed 1 pads nothing.
func heapPad(seed uint64) int { return int((seed - 1) * 37 % 1024) }

// simResult is one simulation as the harness saw it from outside: the
// wall clock of each public call, the allocation deltas around them, and
// the machine's own report.
type simResult struct {
	Spec *simSpec

	// Host seconds per public call (S metrics); zero where the call does
	// not exist for this kind of simulation.
	NewS, BuildS, LoadS, RunS, CheckS, ResultsS float64
	ParseS, ServeNewS, ReportS                  float64

	SetupAllocBytes uint64 // TotalAlloc delta over the setup calls
	RunMallocs      uint64 // Mallocs delta over the run call
	SysBytes        uint64 // MemStats.Sys after the run

	Results       core.Results
	FastForwarded int64
	Rows          []experiments.Table1Row // probe9 only

	// Refs and Cycles are what the host-time rates divide by. For kernel
	// and serving simulations they are Results.Proc.Reads+Writes and
	// Results.Cycles. Table1 hides its machines, so probe9 counts the
	// nine probed references and the sum of their measured latencies.
	Refs, Cycles int64

	Digest    string
	Intervals []float64 // traced run: host ns per simulated kilocycle between sampler callbacks
	Err       string    // non-empty: the simulation failed
}

func (r *simResult) setupS() float64 {
	return r.ParseS + r.NewS + r.BuildS + r.ServeNewS + r.LoadS
}

func machineConfig(spec *simSpec, env *runEnv) core.Config {
	cfg := core.DefaultConfig()
	if !spec.PaperCaches {
		cfg.Params.L2Lines = 2048
		cfg.Params.NCLines = 8192
	}
	if spec.Parallel {
		cfg.ParallelStations = true
		cfg.StationWorkers = env.gomaxprocs
	}
	if spec.Chaos {
		cfg.FaultSpec = chaosFaults
		cfg.FaultSeed = env.seed
		cfg.Params.RetryBackoff = true
		cfg.Params.RetryJitterSeed = env.seed
	}
	return cfg
}

// runSim runs one simulation on a fresh machine. A panic anywhere inside
// the simulator (watchdog, invariant) is recovered and reported as a
// failed simulation, so one bad row cannot hide the others.
func runSim(env *runEnv, spec *simSpec, parent int) (res simResult) {
	res.Spec = spec
	runtime.GOMAXPROCS(env.procsFor(spec))
	// Collect the previous simulation's garbage outside every timed call:
	// each simulation then starts from the heap a fresh process would
	// have, instead of inheriting a collection from its predecessor.
	runtime.GC()
	id := env.tr.begin("simulation:"+spec.ID, parent)
	defer env.tr.end(id)
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %.400v", p)
		}
	}()
	var err error
	switch spec.Kind {
	case kindKernel:
		err = runKernel(env, spec, id, &res)
	case kindServe:
		err = runServe(env, spec, id, &res)
	case kindTable1:
		err = runTable1(env, spec, id, &res)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// timed runs fn as a span under parent and returns its duration.
func (env *runEnv) timed(name string, parent int, fn func()) float64 {
	id := env.tr.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	env.tr.end(id)
	return d.Seconds()
}

// memDelta brackets fn with runtime.ReadMemStats (outside fn's own
// timing) and returns the after-snapshot and the deltas.
func memDelta(fn func()) (after runtime.MemStats, mallocs, allocBytes uint64) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// sampler returns the SetSampler callback of the traced run: it records
// the wall clock between consecutive callbacks per simulated kilocycle.
// It only reads Machine.Now, so it observes and never perturbs.
func (res *simResult) sampler() func(*core.Machine) {
	var lastT time.Time
	var lastCycle int64
	return func(m *core.Machine) {
		now, t := m.Now(), time.Now()
		if !lastT.IsZero() && now > lastCycle {
			res.Intervals = append(res.Intervals,
				float64(t.Sub(lastT).Nanoseconds())*1000/float64(now-lastCycle))
		}
		lastT, lastCycle = t, now
	}
}

func runKernel(env *runEnv, spec *simSpec, span int, res *simResult) error {
	cfg := machineConfig(spec, env)
	var m *core.Machine
	var inst *workloads.Instance
	var err error
	_, _, res.SetupAllocBytes = memDelta(func() {
		res.NewS = env.timed("core.new", span, func() { m, err = core.New(cfg) })
		if err != nil {
			return
		}
		if pad := heapPad(env.seed); pad > 0 {
			m.AllocLines(pad)
		}
		res.BuildS = env.timed("workloads.build", span, func() {
			inst, err = workloads.Build(spec.Kernel, m, spec.Procs, spec.Size)
		})
		if err != nil {
			return
		}
		res.LoadS = env.timed("core.load", span, func() { m.Load(inst.Progs) })
	})
	if err != nil {
		return err
	}
	if env.tr != nil {
		m.SetSampler(sampleEvery, res.sampler())
	}
	var after runtime.MemStats
	after, res.RunMallocs, _ = memDelta(func() {
		res.RunS = env.timed("core.run", span, func() { m.Run() })
	})
	res.SysBytes = after.Sys
	res.CheckS = env.timed("workloads.check", span, func() { err = inst.Check() })
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	res.finish(env, span, m)
	return nil
}

func runServe(env *runEnv, spec *simSpec, span int, res *simResult) error {
	cfg := machineConfig(spec, env)
	var m *core.Machine
	var ctl *serve.Controller
	var err error
	_, _, res.SetupAllocBytes = memDelta(func() {
		var sp serve.Spec
		res.ParseS = env.timed("serve.parse", span, func() { sp, err = serve.ParseSpec(spec.ServeSpec) })
		if err != nil {
			return
		}
		res.NewS = env.timed("core.new", span, func() { m, err = core.New(cfg) })
		if err != nil {
			return
		}
		res.ServeNewS = env.timed("serve.new", span, func() { ctl, err = serve.New(m, sp, env.seed) })
	})
	if err != nil {
		return err
	}
	if env.tr != nil {
		m.SetSampler(sampleEvery, res.sampler())
	}
	var after runtime.MemStats
	after, res.RunMallocs, _ = memDelta(func() {
		res.RunS = env.timed("serve.run", span, func() { ctl.Run() })
	})
	res.SysBytes = after.Sys
	res.ReportS = env.timed("serve.report", span, func() { ctl.Report() })
	res.finish(env, span, m)
	sv := res.Results.Serve
	if sv == nil {
		return fmt.Errorf("no serving report")
	}
	if t := sv.Total; t.Arrived != t.Completed+t.Dropped+t.Failed+t.Shed {
		return fmt.Errorf("conservation law broken: arrived=%d completed=%d dropped=%d failed=%d shed=%d",
			t.Arrived, t.Completed, t.Dropped, t.Failed, t.Shed)
	}
	return nil
}

// table1Probes is how many machines experiments.Table1 builds on the
// prototype geometry: three scopes of three access types.
const table1Probes = 9

func runTable1(env *runEnv, spec *simSpec, span int, res *simResult) error {
	cfg := machineConfig(spec, env)
	var err error
	// Table1 constructs its machines internally, so its setup cannot be
	// timed around the call. The same nine constructions are timed here
	// instead; the machines are dropped unused.
	_, _, res.SetupAllocBytes = memDelta(func() {
		res.NewS = env.timed("core.new", span, func() {
			for i := 0; i < table1Probes && err == nil; i++ {
				_, err = core.New(cfg)
			}
		})
	})
	if err != nil {
		return err
	}
	runtime.GC()
	var after runtime.MemStats
	after, res.RunMallocs, _ = memDelta(func() {
		res.RunS = env.timed("experiments.table1", span, func() { res.Rows, err = experiments.Table1(cfg) })
	})
	res.SysBytes = after.Sys
	if err != nil {
		return err
	}
	if len(res.Rows) != table1Probes {
		return fmt.Errorf("table1 returned %d rows, want %d", len(res.Rows), table1Probes)
	}
	res.Refs = int64(len(res.Rows))
	for _, r := range res.Rows {
		res.Cycles += r.Cycles
	}
	res.Digest = digest(res.Rows)
	return nil
}

// finish takes the machine's report and derives what the rates divide by.
func (res *simResult) finish(env *runEnv, span int, m *core.Machine) {
	res.ResultsS = env.timed("core.results", span, func() { res.Results = m.Results() })
	res.FastForwarded = m.FastForwarded.Value()
	res.Refs = res.Results.Proc.Reads + res.Results.Proc.Writes
	res.Cycles = res.Results.Cycles
	res.Digest = digest(res.Results)
}

// digest hashes a simulation's complete simulated-time report. Nothing
// in core.Results depends on the host or on which cycle loop ran, so a
// simulator-only optimisation must leave every digest unchanged.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unhashable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
