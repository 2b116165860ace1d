// Command bench is the NUMAchine benchmark: six workloads measured from
// outside the simulator, in host time (what the simulator costs) and in
// simulated time (what the modelled machine does), with a per-layer
// ledger beside the end-to-end numbers. See README.md in this directory.
//
//	go run ./bench run -workload all -seed 1 -out results.json
//	go run ./bench run -workload miss64 -trace 1 -trace-dir .bench_build/trace
//	go run ./bench drills
//	go run ./bench compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

const (
	schema = "numachine-bench/1"
	// maxProcs caps host.gomaxprocs, the Ps a parallel-loop simulation
	// gets (runEnv.procsFor), so results from large hosts stay comparable.
	maxProcs = 4
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "drills":
		err = cmdDrills(os.Args[2:], os.Stdout)
	case "compare":
		err = cmdCompare(os.Args[2:], os.Stdout)
	case "manifest":
		err = writeManifest(os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bench run|drills|compare|manifest [flags]  (see bench/README.md)")
	os.Exit(2)
}

// hostProcs is host.gomaxprocs: min(nproc, maxProcs).
func hostProcs() int {
	n := runtime.NumCPU()
	if n > maxProcs {
		n = maxProcs
	}
	return n
}

// stamp records where and how a result file was produced; compare
// refuses to set two files side by side when their inputs differ.
type stamp struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"host.gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"` // 0: fixed pass counts
	Smoke      bool   `json:"smoke"`
	Traced     bool   `json:"traced"`
}

// resultFile is what `bench run -out` writes and `bench compare` reads.
type resultFile struct {
	Schema    string           `json:"schema"`
	Stamp     stamp            `json:"stamp"`
	Workloads []workloadResult `json:"workloads"`
}

func gitOutput(args ...string) (string, bool) {
	out, err := exec.Command("git", args...).Output()
	return strings.TrimSpace(string(out)), err == nil
}

func newStamp(opt options, gomaxprocs int) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GoMaxProcs: gomaxprocs, Seed: opt.Seed, Seconds: opt.Seconds, Smoke: opt.Smoke, Traced: opt.Trace,
	}
	if commit, ok := gitOutput("rev-parse", "HEAD"); ok {
		st.Commit = commit
		status, _ := gitOutput("status", "--porcelain")
		st.Dirty = status != ""
	}
	return st
}

func cmdRun(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var opt options
	var trace int
	var out string
	fs.StringVar(&opt.Workload, "workload", "all", "all, hit1, miss64, par64, probe9, serve or serve-chaos")
	fs.Uint64Var(&opt.Seed, "seed", 1, "the only input knob: heap pad for kernels, serve and fault seed for serving (>= 1)")
	fs.IntVar(&opt.Seconds, "seconds", 0, "measure each workload for at least this long; 0 = its fixed pass count")
	fs.IntVar(&trace, "trace", 0, "1 = also make the traced run (spans, interval sampler, CPU profile, multi-P pass)")
	fs.StringVar(&opt.TraceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "where the traced run writes spans.json and <workload>.pprof")
	fs.StringVar(&out, "out", "", "write the result file here")
	fs.BoolVar(&opt.Smoke, "smoke", false, "tiny sizes, one pass: checks the harness, measures nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("run: unexpected argument %q", fs.Arg(0))
	}
	if opt.Seed < 1 || opt.Seconds < 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("run: need -seed >= 1, -seconds >= 0 and -trace 0 or 1")
	}
	opt.Trace = trace == 1
	file, err := run(opt, w)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeResultFile(out, file); err != nil {
			return err
		}
	}
	if len(file.Workloads) == 1 {
		// The benchmark contract: the last line of standard output is one
		// JSON object for the workload that ran.
		line, err := contractLine(&file.Workloads[0], opt.Trace)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, line)
	}
	for i := range file.Workloads {
		if !file.Workloads[i].Correct {
			return fmt.Errorf("workload %s failed its checks", file.Workloads[i].Name)
		}
	}
	return nil
}

// run measures the selected workloads and prints every metric by name.
func run(opt options, w io.Writer) (*resultFile, error) {
	ws, err := selectWorkloads(opt.Workload, opt.Smoke)
	if err != nil {
		return nil, err
	}
	gomaxprocs := hostProcs()
	file := &resultFile{Schema: schema, Stamp: newStamp(opt, gomaxprocs)}
	var spans *tracer
	if opt.Trace {
		if err := os.MkdirAll(opt.TraceDir, 0o755); err != nil {
			return nil, err
		}
		spans = newTracer()
	}
	fmt.Fprintf(w, "bench: commit %s%s, %s, nproc %d, host.gomaxprocs %d, seed %d (heap pad %d lines)\n",
		file.Stamp.Commit, dirtyMark(file.Stamp), file.Stamp.GoVersion,
		file.Stamp.NProc, gomaxprocs, opt.Seed, heapPad(opt.Seed))
	fmt.Fprintln(w, "bench: modelled caches start empty in every simulation; host-time metrics are medians over timed passes [q1 .. q3] n, then the best pass")
	for i := range ws {
		res, err := runWorkload(&ws[i], opt, gomaxprocs, spans)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", ws[i].Name, err)
		}
		printWorkload(w, &res)
		file.Workloads = append(file.Workloads, res)
	}
	if spans != nil {
		if err := spans.write(filepath.Join(opt.TraceDir, "spans.json")); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "bench: traced run artifacts in %s (spans.json, <workload>.pprof)\n", opt.TraceDir)
	}
	return file, nil
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d timed passes, %.1f s measured, sim_digest %s, correct=%v (%d of %d simulations failed)\n",
		r.Name, r.Passes, r.MeasuredS, r.SimDigest, r.Correct, r.Failed, r.Attempted)
	for _, s := range r.Sims {
		fmt.Fprintf(w, "   simulation %-28s digest %s  cycles %d  refs %d\n", s.ID, s.Digest, s.Cycles, s.Refs)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	printStats(w, "end-to-end", endToEndDefs, r.EndToEnd)
	printStats(w, "per-layer", perLayerDefs, r.PerLayer)
}

func printStats(w io.Writer, title string, defs []metricDef, m map[string]stat) {
	fmt.Fprintf(w, " %s:\n", title)
	for _, d := range defs {
		s, ok := m[d.Name]
		if !ok {
			continue
		}
		if d.Exact || s.N <= 1 {
			fmt.Fprintf(w, "   %-34s %16.6g %-10s\n", d.Name, s.Value, s.Unit)
			continue
		}
		fmt.Fprintf(w, "   %-34s %16.6g %-10s [%.6g .. %.6g] n=%d best %.6g\n", d.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N, s.Best)
	}
}

func writeResultFile(path string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return &f, nil
}

// ---- the benchmark contract (BENCHMARK.json) ----

// contractBounds are the end-to-end metrics BENCHMARK.json lists, with
// the bound the external driver applies. The driver needs every listed
// metric from every workload, never zero, and judges spread across
// *different* seeds, so the list is the subset of endToEndDefs that all
// six workloads report and the bounds are wider than compare's (README,
// "BENCHMARK.json"). The rest ride in BENCHMARK.json's per_layer list.
var contractBounds = []struct {
	Name  string
	Bound float64
}{
	{"setup_s", 0.25},
	{"refs_per_s", 0.25},
	{"ns_per_sim_cycle", 0.25},
	{"setup_alloc_mb", 0.05},
	{"sim_cycles", 0.20},
}

func isContractEndToEnd(name string) bool {
	for _, c := range contractBounds {
		if c.Name == name {
			return true
		}
	}
	return false
}

// contractPerLayer is BENCHMARK.json's per_layer list: the end-to-end
// metrics not every workload has, then the per-layer ledger.
func contractPerLayer() []metricDef {
	var out []metricDef
	for _, d := range endToEndDefs {
		if !isContractEndToEnd(d.Name) {
			out = append(out, d)
		}
	}
	return append(out, perLayerDefs...)
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the workload as the contract's last line. With
// trace off it carries the end-to-end list, with trace on the per-layer
// list; a metric the workload does not have reads 0. Host-time metrics
// are reported by their best pass: the driver judges a benchmark by the
// spread of this one number over ten runs, and on a shared host the best
// pass repeats within 3-8% where the median moves by 14-38% (README,
// "Observed spreads"). attempted and failed count simulations and their
// failed checks; requests the serving layer refused are a measured
// outcome (failed_share), not an incorrect one.
func contractLine(r *workloadResult, traced bool) (string, error) {
	metrics := map[string]contractMetric{}
	put := func(d metricDef) {
		s, ok := r.EndToEnd[d.Name]
		if !ok {
			s = r.PerLayer[d.Name]
		}
		v := s.Best
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.Name] = contractMetric{Value: v, Unit: d.Unit}
	}
	if traced {
		for _, d := range contractPerLayer() {
			put(d)
		}
	} else {
		for _, c := range contractBounds {
			d, _ := defByName(endToEndDefs, c.Name)
			put(d)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(line), err
}

// contractRunSeconds is BENCHMARK.json's run_seconds.
const contractRunSeconds = 10

// writeManifest prints BENCHMARK.json from the tables above, so the file
// at the repository root cannot drift from the code (manifest_test.go
// compares them).
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench", "run"},
		Paths:      []string{"bench"},
		RunSeconds: contractRunSeconds,
	}
	for _, x := range allWorkloads(false) {
		m.Workloads = append(m.Workloads, wl{x.Name, x.Why})
	}
	for _, c := range contractBounds {
		d, _ := defByName(endToEndDefs, c.Name)
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, c.Bound})
	}
	for _, d := range contractPerLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
