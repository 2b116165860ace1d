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

func runWorkload(t *testing.T, name string, procs, size int, loop string, fastHits bool) (int64, core.Results) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Params.L2Lines = 2048
	cfg.Params.NCLines = 8192
	cfg.FastHits = fastHits
	m, err := core.NewLoop(cfg, loop)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workloads.Build(name, m, procs, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(inst.Progs)
	cycles := m.Run()
	if err := inst.Check(); err != nil {
		t.Fatalf("%s (%s): %v", name, loop, err)
	}
	return cycles, m.Results()
}

// TestWorkloadFastHitsEquivalence runs the real workload generators with
// the front-end hit fast path off (baseline, reference order) and on (all
// three loops): cycle counts and the full Results snapshot must be
// bit-identical. Cross-loop identity at a fixed FastHits setting is
// covered by TestWorkloadLoopEquivalence, so this axis closes the
// on/off × loop matrix for real reference streams.
func TestWorkloadFastHitsEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		procs, size int
	}{
		{"radix", 16, 1024},
		{"lu-contig", 16, 32},
		{"water-nsq", 16, 32},
	}
	if testing.Short() {
		cases = cases[:1]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			offCycles, offRes := runWorkload(t, c.name, c.procs, c.size, "naive", false)
			for _, loop := range []string{"naive", "scheduled", "parallel"} {
				cycles, res := runWorkload(t, c.name, c.procs, c.size, loop, true)
				if offCycles != cycles {
					t.Errorf("cycle count: off=%d fast/%s=%d", offCycles, loop, cycles)
				}
				if !reflect.DeepEqual(offRes, res) {
					t.Errorf("results diverge:\noff:     %+v\nfast/%s: %+v", offRes, loop, res)
				}
			}
		})
	}
}

func TestWorkloadLoopEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		procs, size int
	}{
		{"radix", 16, 1024},
		{"fft", 16, 1024},
		{"ocean", 16, 32},
		{"water-nsq", 16, 32},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nCycles, nRes := runWorkload(t, c.name, c.procs, c.size, "naive", true)
			for _, loop := range []string{"scheduled", "parallel"} {
				cycles, res := runWorkload(t, c.name, c.procs, c.size, loop, true)
				if nCycles != cycles {
					t.Errorf("cycle count: naive=%d %s=%d", nCycles, loop, cycles)
				}
				if !reflect.DeepEqual(nRes, res) {
					t.Errorf("results diverge:\nnaive: %+v\n%s: %+v", nRes, loop, res)
				}
			}
		})
	}
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

// serveMatrix runs one serving scenario in the reference order with the
// fast path on, then under every other loop × fast-path setting, and
// requires byte-identical reports and deep-equal results. vacuous names
// what the reference run must show for the comparison to mean anything.
func serveMatrix(t *testing.T, cfg core.Config, spec string, seed uint64, vacuous func(*core.ServeResults) bool) {
	t.Helper()
	cfg.FastHits = true
	refReport, refRes := runServe(t, cfg, "naive", spec, seed)
	if vacuous(refRes.Serve) {
		t.Fatal("the reference run does not exercise the scenario; test is vacuous")
	}
	for _, loop := range []string{"naive", "scheduled", "parallel"} {
		for _, fast := range []bool{true, false} {
			if loop == "naive" && fast {
				continue // the reference run
			}
			cfg.FastHits = fast
			report, res := runServe(t, cfg, loop, spec, seed)
			if report != refReport {
				t.Errorf("%s/fast=%v report diverges:\n--- naive/fast=true\n%s--- %s/fast=%v\n%s",
					loop, fast, refReport, loop, fast, report)
			}
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("%s/fast=%v full results diverge", loop, fast)
			}
		}
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
