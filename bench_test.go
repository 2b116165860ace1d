// Benchmarks regenerating the paper's evaluation, one per table and
// figure (§4; Figures 15-18 share one, since they read the same runs).
// Each benchmark iteration runs the complete experiment on a
// scaled-down input (full-size record runs live in EXPERIMENTS.md and are
// produced by cmd/experiments). The interesting output is the custom
// metrics — cycles, rates, utilizations — rather than ns/op.
//
// Run with: go test -bench=. -benchmem -benchtime 1x
package numachine_test

import (
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/experiments"
	"numachine/internal/workloads"
)

// benchSizes are reduced problem sizes so a full -bench=. sweep finishes
// in minutes; the shapes (who wins, rough factors) match the bigger runs.
var benchSizes = map[string]int{
	"radix": 8192, "fft": 4096,
	"lu-contig": 96, "lu-noncontig": 96, "cholesky": 96,
	"barnes": 256, "ocean": 64,
	"water-nsq": 64, "water-spatial": 64,
	"fmm": 256, "raytrace": 24, "radiosity": 96,
}

func benchConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Params.L2Lines = 2048
	cfg.Params.NCLines = 8192
	return cfg
}

// BenchmarkTable1Latencies regenerates Table 1: the nine contention-free
// latencies. Reported metrics are the measured cycle counts.
func BenchmarkTable1Latencies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			scope := strings.NewReplacer(" ", "", ",", "_").Replace(r.Scope)
			b.ReportMetric(float64(r.Cycles), scope+"/"+r.Access+"_cyc")
		}
	}
}

// speedupBench runs one Figure 13/14 curve at P = 1, 16, 64 and reports
// the P=64 speedup.
func speedupBench(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.SweepSpeedups(benchConfig(), []string{name}, benchSizes, []int{1, 16, 64}, 1)
		if err != nil {
			b.Fatal(err)
		}
		pts := curves[0].Points
		b.ReportMetric(pts[len(pts)-1].Speedup, "speedup64x")
		b.ReportMetric(float64(pts[0].Cycles), "t1_cycles")
	}
}

// BenchmarkFig13KernelSpeedup regenerates Figure 13 (kernels).
func BenchmarkFig13KernelSpeedup(b *testing.B) {
	for _, name := range workloads.Kernels() {
		b.Run(name, func(b *testing.B) { speedupBench(b, name) })
	}
}

// BenchmarkFig14AppSpeedup regenerates Figure 14 (applications).
func BenchmarkFig14AppSpeedup(b *testing.B) {
	for _, name := range workloads.Applications() {
		b.Run(name, func(b *testing.B) { speedupBench(b, name) })
	}
}

// BenchmarkFig15to18NCWorkloads regenerates Figures 15-18 from one run of
// each of the six workloads at 64 processors (experiments.NCFigures, run
// once): the NC total hit rate (Fig 15), the NC combining rate (Fig 16),
// bus and ring utilizations (Fig 17) and the ring interface delays
// (Fig 18), reported per workload.
func BenchmarkFig15to18NCWorkloads(b *testing.B) {
	runs, err := experiments.NCFigures(benchConfig(), 64, benchSizes, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, run := range runs {
		r := run.Results
		b.Run(run.Workload, func(b *testing.B) {
			b.ReportMetric(100*r.NC.HitRate(), "hit_pct")
			b.ReportMetric(100*r.NC.CombiningRate(), "combining_pct")
			b.ReportMetric(100*r.BusUtil, "bus_pct")
			b.ReportMetric(100*r.LocalRingUtil, "lring_pct")
			b.ReportMetric(100*r.CentralRingUtil, "cring_pct")
			b.ReportMetric(r.RISendDelay, "send_cyc")
			b.ReportMetric(r.RIDownSink, "down_sink_cyc")
			b.ReportMetric(r.RIDownNonsink, "down_nonsink_cyc")
			b.ReportMetric(r.IRIUpDelay, "iri_up_cyc")
		})
	}
}

// BenchmarkTable3FalseRemotes regenerates Table 3 with a small NC (the
// effect needs ejections; the prototype-size NC yields the paper's ~0%).
func BenchmarkTable3FalseRemotes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Params.NCLines = 512
		rows, err := experiments.Table3(cfg, 64, benchSizes, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Rate, r.Workload+"_false_pct")
		}
	}
}

// BenchmarkAblationSCLocking regenerates the §2.3 claim that the
// sequential-consistency locking costs only ~2% overall. It runs at the
// sizes cmd/experiments uses, not benchSizes: the delta is a difference of
// two cycle counts and moves with the size (ocean at 64 reads 8.3 %).
func BenchmarkAblationSCLocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationSCLocking(benchConfig(), 64, []string{"ocean", "radix"}, experiments.SpeedupSizes(), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			b.ReportMetric(r.Delta(), r.Workload+"_delta_pct")
		}
	}
}
