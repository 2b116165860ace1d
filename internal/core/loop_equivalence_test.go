// Integration-level equivalence: the real workload generators and the
// serving layer must produce bit-identical results under the test-only
// reference order and both executors of the gated cycle. The synthetic
// scenarios in equivalence_test.go cover the protocol corners; this file
// covers the callers above core, which an external test package may import.
package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"numachine/internal/core"
	"numachine/internal/serve"
	"numachine/internal/topo"
	"numachine/internal/workloads"
)

// loopRun is one cell of a loop matrix: a cycle loop and whether the
// front-end hit fast path is on.
type loopRun struct {
	loop string
	fast bool
}

// loopMatrix holds each of runs to a reference run — the reference order
// with the fast path off — that rendered refReport and returned refRes.
// run makes one run and returns its rendered report and results; every
// run must render the reference's report byte for byte and deep-equal its
// results.
func loopMatrix(t *testing.T, refReport string, refRes core.Results, runs []loopRun, run func(loop string, fast bool) (string, core.Results)) {
	t.Helper()
	for _, r := range runs {
		report, res := run(r.loop, r.fast)
		if report != refReport {
			t.Errorf("%s/fast=%v report diverges:\n--- reference\n%s--- %s/fast=%v\n%s",
				r.loop, r.fast, refReport, r.loop, r.fast, report)
		}
		if !reflect.DeepEqual(res, refRes) {
			t.Errorf("%s/fast=%v results diverge:\nreference: %+v\n%s/fast=%v: %+v",
				r.loop, r.fast, refRes, r.loop, r.fast, res)
		}
	}
}

// fastRuns are the loop-matrix cells of the fast path on under loops.
func fastRuns(loops []string) []loopRun {
	var runs []loopRun
	for _, loop := range loops {
		runs = append(runs, loopRun{loop, true})
	}
	return runs
}

// workloadRefs holds each workload's reference results once made, so the
// two workload suites share them. Tests run one at a time here.
var workloadRefs = map[string]core.Results{}

// workloadMatrix runs the real workload generators on the loop matrix:
// cycle counts and the full Results snapshot of the fast path on under
// each of loops must equal the reference order's with it off.
func workloadMatrix(t *testing.T, loops []string) {
	cases := []struct {
		name        string
		procs, size int
	}{
		{"radix", 16, 1024},
		{"fft", 16, 1024},
		{"ocean", 16, 32},
		{"lu-contig", 16, 32},
		{"water-nsq", 16, 32},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(loop string, fast bool) (string, core.Results) {
				cfg := core.DefaultConfig()
				cfg.Params.L2Lines = 2048
				cfg.Params.NCLines = 8192
				cfg.FastHits = fast
				m, err := core.NewLoop(cfg, loop)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := workloads.Build(c.name, m, c.procs, c.size)
				if err != nil {
					t.Fatal(err)
				}
				m.Load(inst.Progs)
				m.Run()
				if err := inst.Check(); err != nil {
					t.Fatalf("%s/fast=%v: %v", loop, fast, err)
				}
				return "", m.Results()
			}
			ref, ok := workloadRefs[c.name]
			if !ok {
				_, ref = run(core.EquivLoops[0], false)
				workloadRefs[c.name] = ref
			}
			loopMatrix(t, "", ref, fastRuns(loops), run)
		})
	}
}

// TestWorkloadFastHitsEquivalence holds the fast path alone, under the
// reference order, to the reference run with it off.
func TestWorkloadFastHitsEquivalence(t *testing.T) {
	workloadMatrix(t, core.EquivLoops[:1])
}

// TestWorkloadLoopEquivalence holds both executors, fast path on, to the
// reference run.
func TestWorkloadLoopEquivalence(t *testing.T) {
	workloadMatrix(t, core.EquivLoops[1:])
}

// serveConfig is the small machine the serve scenarios run on.
func serveConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	return cfg
}

// runServe executes one serving scenario under the named loop and returns
// the rendered report plus the full machine results.
func runServe(t *testing.T, cfg core.Config, loop, spec string, seed uint64) (string, core.Results) {
	t.Helper()
	sp, err := serve.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewLoop(cfg, loop)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := serve.New(m, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Run()
	r := m.Results()
	if r.Serve == nil {
		t.Fatal("Results.Serve missing after a serve run")
	}
	var b bytes.Buffer
	r.Serve.WriteReport(&b)
	return b.String(), r
}

// serveMatrix runs one serving scenario on the full loop matrix, the fast
// path on under every loop and off under both executors, and requires
// byte-identical reports and deep-equal results. vacuous names
// what the reference run must show for the comparison to mean anything.
func serveMatrix(t *testing.T, cfg core.Config, spec string, seed uint64, vacuous func(*core.ServeResults) bool) {
	t.Helper()
	run := func(loop string, fast bool) (string, core.Results) {
		cfg.FastHits = fast
		return runServe(t, cfg, loop, spec, seed)
	}
	refReport, ref := run(core.EquivLoops[0], false)
	runs := fastRuns(core.EquivLoops)
	for _, loop := range core.EquivLoops[1:] {
		runs = append(runs, loopRun{loop, false})
	}
	loopMatrix(t, refReport, ref, runs, run)
	if vacuous(ref.Serve) {
		t.Error("the reference run does not exercise the scenario; test is vacuous")
	}
}

// TestServeEquivalence pins the serving layer's determinism contract: the
// same spec+seed produces byte-identical serve reports — and fully
// identical machine results — across the reference order and both
// executors, with the front-end hit fast path on or off. The scenarios
// cover both disciplines, every placement policy, open and closed
// arrivals, and the serving CLI smoke's own caches, spec and seed.
func TestServeEquivalence(t *testing.T) {
	cli := core.DefaultConfig() // numasim -serve with the smoke's machine flags
	cli.Geom = serveConfig().Geom
	cli.Params.L2Lines = 256
	cli.Params.NCLines = 512
	for _, c := range []struct {
		name string
		cfg  core.Config
		spec string
		seed uint64
	}{
		{"static/fifo", serveConfig(), "open=3,duration=20000,procs=8,tenants=3,span=256,qcap=8,discipline=fifo,policy=static," +
			"class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0", 42},
		{"locality/edf", serveConfig(), "open=3,duration=20000,procs=8,tenants=3,span=256,qcap=8,discipline=edf,policy=locality," +
			"class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0", 42},
		{"least-load/fifo", serveConfig(), "closed=6,requests=60,procs=8,tenants=2,span=256,depth=2,discipline=fifo,policy=least-load," +
			"class=mix:1:24:30:40:8000", 42},
		{"cli-smoke", cli, "open=3,duration=20000,procs=8,tenants=3,span=256,qcap=8", 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			serveMatrix(t, c.cfg, c.spec, c.seed, func(s *core.ServeResults) bool {
				return s.Total.Completed == 0
			})
		})
	}
}

// TestServeResilienceEquivalence extends the contract to the resilience
// layer: kills, retries, hedges, breaker decisions and sheds must land
// identically under injected faults. Spec, fault schedule, seeds and
// machine are the resilient serving CLI smoke's.
func TestServeResilienceEquivalence(t *testing.T) {
	cfg := serveConfig()
	cfg.FaultSpec = "freeze-mem=3000:500,degrade-ring=5000:300,drop=0.03,timeout=1500"
	cfg.FaultSeed = 21
	cfg.Params.RetryBackoff = true
	cfg.Params.RetryJitterSeed = 21
	spec := "open=4,duration=20000,procs=8,tenants=3,span=256,qcap=8,discipline=edf,policy=locality," +
		"class=urgent:2:6:10:25:1000,class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0," +
		"kill=2,retries=2,backoff=200:1600,retry-budget=24,hedge=1500,breaker=180:2500,shed=on"
	serveMatrix(t, cfg, spec, 42, func(s *core.ServeResults) bool {
		return s.Total.Timeouts == 0 || s.Total.Retries == 0
	})
}
