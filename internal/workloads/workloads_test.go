package workloads

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/topo"
)

// testConfig builds a small-cache machine so workloads exercise evictions.
func testConfig(g topo.Geometry) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geom = g
	cfg.Params.L2Lines = 512
	cfg.Params.NCLines = 1024
	cfg.Params.DeadlockCycles = 2_000_000
	return cfg
}

// protoConfig sizes caches for 64-processor runs: small enough to see
// ejections, large enough to avoid pathological thrash.
func protoConfig(g topo.Geometry) core.Config {
	cfg := testConfig(g)
	cfg.Params.L2Lines = 2048
	cfg.Params.NCLines = 8192
	return cfg
}

// runWorkload builds, runs and verifies one workload instance.
func runWorkload(t *testing.T, name string, g topo.Geometry, nprocs, size int) *core.Machine {
	return runWorkloadCfg(t, name, testConfig(g), nprocs, size)
}

func runWorkloadCfg(t *testing.T, name string, cfg core.Config, nprocs, size int) *core.Machine {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(name, m, nprocs, size)
	if err != nil {
		t.Fatal(err)
	}
	m.Load(inst.Progs)
	cycles := m.Run()
	if cycles <= 0 {
		t.Fatalf("%s: non-positive parallel time %d", name, cycles)
	}
	if err := inst.Check(); err != nil {
		t.Fatalf("%s: result check failed: %v", name, err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("%s: coherence violated: %v", name, err)
	}
	return m
}

var small = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}

func TestRadixSorts(t *testing.T) {
	runWorkload(t, "radix", small, 8, 2048)
}

func TestRadixSingleProc(t *testing.T) {
	runWorkload(t, "radix", topo.Geometry{ProcsPerStation: 1, StationsPerRing: 1, Rings: 1}, 1, 512)
}

func TestFFTMatchesReference(t *testing.T) {
	runWorkload(t, "fft", small, 8, 1024)
}

func TestLUContigFactors(t *testing.T) {
	runWorkload(t, "lu-contig", small, 8, 64)
}

func TestLUNoncontigFactors(t *testing.T) {
	runWorkload(t, "lu-noncontig", small, 8, 64)
}

func TestCholeskyFactors(t *testing.T) {
	runWorkload(t, "cholesky", small, 8, 64)
}

func TestOceanRelaxes(t *testing.T) {
	runWorkload(t, "ocean", small, 8, 32)
}

func TestWaterNsqConservesMomentum(t *testing.T) {
	runWorkload(t, "water-nsq", small, 8, 32)
}

func TestWaterSpatialConservesMomentum(t *testing.T) {
	runWorkload(t, "water-spatial", small, 8, 32)
}

func TestBarnesMatchesDirectSum(t *testing.T) {
	runWorkload(t, "barnes", small, 8, 128)
}

func TestFMMMatchesDirectSum(t *testing.T) {
	runWorkload(t, "fmm", small, 8, 128)
}

func TestRaytraceMatchesHostRender(t *testing.T) {
	runWorkload(t, "raytrace", small, 8, 16)
}

func TestRadiosityConservesEnergy(t *testing.T) {
	runWorkload(t, "radiosity", small, 8, 64)
}

// TestAllWorkloadsOnPrototypeGeometry runs every workload on 64 CPUs at its
// builder's default size, the size numasim runs when -size is not given.
func TestAllWorkloadsOnPrototypeGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("long: full prototype geometry")
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			runWorkloadCfg(t, name, protoConfig(topo.Prototype), 64, 0)
		})
	}
}

// TestBarnesOwnerWriteBackBeforeNAK is the smallest known run that reaches
// a home whose network intervention is NAKed by an owner that had already
// written the line back: the owner's NC ejected the line and then locked
// it again for its own refetch. A home that drops the write-back there
// leaves GI naming an owner that holds nothing, and the machine stops
// making progress.
func TestBarnesOwnerWriteBackBeforeNAK(t *testing.T) {
	cfg := testConfig(topo.Prototype)
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 64
	runWorkloadCfg(t, "barnes", cfg, 64, 256)
}
