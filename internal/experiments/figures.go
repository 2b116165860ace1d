package experiments

import (
	"fmt"
	"io"
	"path/filepath"

	"numachine/internal/core"
	"numachine/internal/workloads"
)

// Trace capture for sweep points. Set once via SetTraceCapture before any
// sweep starts (parMap runs points concurrently, so mutating these
// mid-sweep would race); every subsequent runOne then records a trace and
// writes <dir>/<workload>-p<procs>.json in Chrome trace-event format.
// Sweep families that revisit the same (workload, procs) coordinate —
// e.g. the ablation's locking on/off pair — overwrite the earlier file;
// the capture is a best-effort diagnostic, not an archival record.
var (
	traceDir    string
	traceEvents int
)

// SetTraceCapture enables per-sweep-point trace files under dir (disabled
// when dir is empty). perComponent sizes each component's event ring
// buffer (<=0 for the default).
func SetTraceCapture(dir string, perComponent int) {
	traceDir = dir
	traceEvents = perComponent
}

// SpeedupPoint is one point of a Figure 13/14 speedup curve.
type SpeedupPoint struct {
	Procs   int
	Cycles  int64
	Speedup float64
}

// RunResult bundles one workload execution.
type RunResult struct {
	Workload string
	Cycles   int64
	Results  core.Results
}

// runOne builds a fresh machine, runs the named workload and verifies both
// the computation's result and the coherence invariants. Errors carry the
// full run coordinates — workload, P, size, loop mode, sweep workers — so
// a failing sweep point is reproducible from the message alone.
func runOne(cfg core.Config, name string, nprocs, size, workers int) (RunResult, error) {
	fail := func(err error) (RunResult, error) {
		return RunResult{}, fmt.Errorf("%s (p=%d size=%d loop=%s workers=%d): %w",
			name, nprocs, size, cfg.LoopName(), workers, err)
	}
	m, err := core.New(cfg)
	if err != nil {
		return fail(err)
	}
	inst, err := workloads.Build(name, m, nprocs, size)
	if err != nil {
		return fail(err)
	}
	m.Load(inst.Progs)
	if traceDir != "" {
		m.EnableTrace(traceEvents)
	}
	cycles := m.Run()
	if err := inst.Check(); err != nil {
		return fail(err)
	}
	if err := m.CheckCoherence(); err != nil {
		return fail(err)
	}
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-p%d.json", name, nprocs))
		if err := m.Tracer().WriteChromeFile(path); err != nil {
			return fail(err)
		}
	}
	return RunResult{Workload: name, Cycles: cycles, Results: m.Results()}, nil
}

// SpeedupSizes returns the default problem size for each workload in the
// speedup sweeps: large enough for the curves to be meaningful, small
// enough for single-host simulation (the scaling vs the paper's Table 2 is
// recorded in EXPERIMENTS.md).
func SpeedupSizes() map[string]int {
	return map[string]int{
		"radix": 65536, "fft": 16384,
		"lu-contig": 192, "lu-noncontig": 192, "cholesky": 192,
		"barnes": 1024, "ocean": 192,
		"water-nsq": 256, "water-spatial": 256,
		"fmm": 1024, "raytrace": 48, "radiosity": 256,
	}
}

// NCFigures runs the six workloads of Figures 15-18 on nprocs processors
// at the problem sizes of sizes (SpeedupSizes for the paper's runs) and
// returns their results; the NC hit/combining rates, path utilizations
// and ring interface delays all derive from these runs. The workloads run
// concurrently on up to workers goroutines, in deterministic order.
func NCFigures(cfg core.Config, nprocs int, sizes map[string]int, workers int) ([]RunResult, error) {
	names := workloads.NCWorkloads()
	return parMap(workers, len(names), func(i int) (RunResult, error) {
		return runOne(cfg, names[i], nprocs, sizes[names[i]], workers)
	})
}

// PrintFig15 renders the NC hit rate decomposition (Figure 15).
func PrintFig15(w io.Writer, runs []RunResult) {
	fmt.Fprintf(w, "Figure 15: network cache total hit rate (%% of non-retry requests)\n")
	fmt.Fprintf(w, "%-14s %10s %12s %12s %12s\n", "Workload", "Hit rate", "Migration", "Caching", "LocalInterv")
	for _, r := range runs {
		nc := r.Results.NC
		fmt.Fprintf(w, "%-14s %9.1f%% %11.1f%% %11.1f%% %11.1f%%\n",
			r.Workload, 100*nc.HitRate(), 100*nc.MigrationRate(),
			100*float64(nc.HitsCaching)/float64(max(nc.Requests, 1)),
			100*float64(nc.LocalInterv)/float64(max(nc.Requests, 1)))
	}
}

// PrintFig16 renders the NC combining rate (Figure 16).
func PrintFig16(w io.Writer, runs []RunResult) {
	fmt.Fprintf(w, "Figure 16: network cache combining rate\n")
	fmt.Fprintf(w, "%-14s %12s %12s %14s\n", "Workload", "Combined", "Requests", "Rate")
	for _, r := range runs {
		nc := r.Results.NC
		fmt.Fprintf(w, "%-14s %12d %12d %13.1f%%\n",
			r.Workload, nc.Combined, nc.Requests, 100*nc.CombiningRate())
	}
}

// PrintFig17 renders communication path utilizations (Figure 17).
func PrintFig17(w io.Writer, runs []RunResult) {
	fmt.Fprintf(w, "Figure 17: average utilization of communication paths\n")
	fmt.Fprintf(w, "%-14s %10s %12s %14s\n", "Workload", "Bus", "Local ring", "Central ring")
	for _, r := range runs {
		fmt.Fprintf(w, "%-14s %9.1f%% %11.1f%% %13.1f%%\n",
			r.Workload, 100*r.Results.BusUtil, 100*r.Results.LocalRingUtil, 100*r.Results.CentralRingUtil)
	}
}

// PrintFig18 renders the ring interface delays (Figure 18).
func PrintFig18(w io.Writer, runs []RunResult) {
	fmt.Fprintf(w, "Figure 18a: average local ring interface delays (cycles)\n")
	fmt.Fprintf(w, "%-14s %8s %16s %14s\n", "Workload", "Send", "Down(nonsink)", "Down(sink)")
	for _, r := range runs {
		fmt.Fprintf(w, "%-14s %8.1f %16.1f %14.1f\n",
			r.Workload, r.Results.RISendDelay, r.Results.RIDownNonsink, r.Results.RIDownSink)
	}
	fmt.Fprintf(w, "Figure 18b: average central ring (IRI) upward-path delay (cycles)\n")
	fmt.Fprintf(w, "%-14s %8s\n", "Workload", "Up")
	for _, r := range runs {
		fmt.Fprintf(w, "%-14s %8.1f\n", r.Workload, r.Results.IRIUpDelay)
	}
}

// Table3Row is one row of the false-remote-request table.
type Table3Row struct {
	Workload     string
	FalseRemotes int64
	Requests     int64
	Rate         float64 // percent
	SpecialWr    int64   // §4.6's other rare case: optimistic-upgrade misfires
}

// Table3 measures the percentage of local NC requests that caused a false
// remote request (§4.6). The effect needs NC ejections to occur, so the
// caller should pass a configuration with a small network cache relative
// to the working set (the paper's rates are per its 4 MB NC; EXPERIMENTS.md
// records both settings). sizes maps workload name to problem size.
func Table3(cfg core.Config, nprocs int, sizes map[string]int, workers int) ([]Table3Row, error) {
	names := []string{"cholesky", "fmm", "ocean", "radiosity", "radix", "lu-contig", "water-nsq"}
	return parMap(workers, len(names), func(i int) (Table3Row, error) {
		r, err := runOne(cfg, names[i], nprocs, sizes[names[i]], workers)
		if err != nil {
			return Table3Row{}, err
		}
		nc := r.Results.NC
		return Table3Row{
			Workload:     names[i],
			FalseRemotes: nc.FalseRemotes,
			Requests:     nc.Requests,
			Rate:         100 * nc.FalseRemoteRate(),
			SpecialWr:    nc.SpecialWrReqs,
		}, nil
	})
}

// PrintTable3 renders the false-remote-request rates.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: local NC requests causing false remote requests\n")
	fmt.Fprintf(w, "%-14s %12s %12s %10s %12s\n", "Workload", "FalseRem", "Requests", "Rate", "SpecialWr")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %12d %12d %9.3f%% %12d\n",
			r.Workload, r.FalseRemotes, r.Requests, r.Rate, r.SpecialWr)
	}
}

// AblationResult compares a design choice's on/off cycle counts.
type AblationResult struct {
	Workload  string
	OnCycles  int64
	OffCycles int64
}

// Delta returns the relative slowdown of "on" vs "off" in percent.
func (a AblationResult) Delta() float64 {
	return 100 * (float64(a.OnCycles) - float64(a.OffCycles)) / float64(a.OffCycles)
}

// AblationSCLocking measures the cost of the sequential-consistency
// locking mechanism (§2.3 reports only a 2% overall difference) at the
// problem sizes of sizes. The 2*len(names) on/off points fan out across
// the worker pool.
func AblationSCLocking(cfg core.Config, nprocs int, names []string, sizes map[string]int, workers int) ([]AblationResult, error) {
	runs, err := parMap(workers, 2*len(names), func(i int) (RunResult, error) {
		c := cfg
		c.Params.SCLocking = i%2 == 0
		return runOne(c, names[i/2], nprocs, sizes[names[i/2]], workers)
	})
	if err != nil {
		return nil, err
	}
	var out []AblationResult
	for i, name := range names {
		out = append(out, AblationResult{Workload: name, OnCycles: runs[2*i].Cycles, OffCycles: runs[2*i+1].Cycles})
	}
	return out, nil
}

// PrintSpeedup renders one speedup curve.
func PrintSpeedup(w io.Writer, name string, pts []SpeedupPoint) {
	fmt.Fprintf(w, "%-14s", name)
	for _, p := range pts {
		fmt.Fprintf(w, "  P=%-3d %6.2fx", p.Procs, p.Speedup)
	}
	fmt.Fprintln(w)
}
