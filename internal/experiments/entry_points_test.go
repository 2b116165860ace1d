package experiments

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/topo"
)

// TestEntryPoints runs each experiment entry point that cmd/experiments
// reaches and no other test does — Figures 15-18, Table 3, the SC-locking
// ablation and the serving and resilience sweeps — once, at tiny sizes on
// a 4-processor machine, and checks that every row it returns is filled.
func TestEntryPoints(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 1}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 64
	nprocs := cfg.Geom.Procs()
	sizes := map[string]int{
		"barnes": 32, "radix": 256, "fft": 256, "lu-contig": 16, "ocean": 10,
		"water-nsq": 8, "cholesky": 16, "fmm": 32, "radiosity": 16,
	}

	runs, err := NCFigures(cfg, nprocs, sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 6 {
		t.Errorf("NCFigures: %d runs, want 6", len(runs))
	}
	for _, r := range runs {
		if r.Workload == "" || r.Cycles <= 0 || r.Results.NC.Requests == 0 || r.Results.BusUtil == 0 {
			t.Errorf("NCFigures: unfilled run %s: cycles %d, NC requests %d, bus util %g",
				r.Workload, r.Cycles, r.Results.NC.Requests, r.Results.BusUtil)
		}
	}

	rows, err := Table3(cfg, nprocs, sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Errorf("Table3: %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Workload == "" || r.Requests == 0 {
			t.Errorf("Table3: unfilled row %+v", r)
		}
	}

	abl, err := AblationSCLocking(cfg, nprocs, []string{"radix", "ocean"}, sizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 2 {
		t.Errorf("AblationSCLocking: %d results, want 2", len(abl))
	}
	for _, a := range abl {
		if a.Workload == "" || a.OnCycles <= 0 || a.OffCycles <= 0 {
			t.Errorf("AblationSCLocking: unfilled result %+v", a)
		}
	}

	const base = "duration=3000,procs=4,tenants=2"
	pts, err := SweepServe(cfg, base, 1, []string{"static", "least-load"}, []string{"fifo"}, []int{2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Errorf("SweepServe: %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if p.Policy == "" || p.Discipline == "" || p.Load == 0 || p.Report == nil || p.Report.Total.Completed == 0 {
			t.Errorf("SweepServe: unfilled point %s/%s load %d", p.Policy, p.Discipline, p.Load)
		}
	}

	res, err := SweepResilience(cfg, "open=2,"+base, "kill=2,retries=1", 1, 3,
		[]FaultSchedule{{Name: "none"}, {Name: "drop", Spec: "drop=0.05,timeout=500"}},
		[]string{"locality"}, []string{"edf"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two fault schedules, each with the baseline, all-on and all but
	// retries arms.
	if len(res) != 6 {
		t.Errorf("SweepResilience: %d points, want 6", len(res))
	}
	for _, p := range res {
		if p.Fault == "" || p.Policy == "" || p.Discipline == "" || p.Arm == "" || p.Report == nil || p.Report.Total.Completed == 0 {
			t.Errorf("SweepResilience: unfilled point %s/%s/%s arm %s", p.Fault, p.Policy, p.Discipline, p.Arm)
		}
	}
}
