package main

import (
	"fmt"
	"strings"
)

// simKind says which public entry point a simulation drives.
type simKind int

const (
	kindKernel simKind = iota // workloads.Build + Machine.Run
	kindServe                 // serve.New + Controller.Run
	kindTable1                // experiments.Table1 (nine machines inside)
)

// simSpec is one simulation of a pass. Every simulation gets a fresh
// machine whose modelled caches start empty: that is what a numasim
// user pays on every run, so no statistics warm-up is skipped.
type simSpec struct {
	ID   string
	Kind simKind

	// Procs is how many simulated CPUs run programs: a kernel's
	// processor count or a serving scenario's workers.
	Procs int

	// Kernel simulations.
	Kernel string
	Size   int

	// Machine shape.
	PaperCaches bool // DefaultConfig caches; otherwise L2Lines=2048, NCLines=8192
	Parallel    bool // ParallelStations with StationWorkers = host.gomaxprocs

	// Reference marks par64's scheduled-loop twin of the preceding
	// parallel simulation: it is timed only as the base of
	// core.parallel_speedup and checked for an identical digest, and is
	// left out of every end-to-end sum.
	Reference bool

	// Serving simulations.
	ServeSpec string
	OpenRate  int  // open-loop rate probe: arrivals per kilocycle; 0 = closed loop (pass.counted)
	Chaos     bool // fault schedule + RetryBackoff (serve-chaos)
}

// workload is a fixed pass: a list of simulations run in order, each on
// a fresh machine.
type workload struct {
	Name   string
	Why    string // one line for BENCHMARK.json
	Passes int    // timed passes when -seconds is 0
	Sims   []simSpec
}

// Serving scenarios. The two classes are bench_json_test.go's
// benchServeSpec classes; the interactive deadline is the latency limit
// max_rate_under_sla is judged against.
const (
	serveClasses       = "class=interactive:4:8:20:25:4000,class=batch:1:64:80:50:0"
	interactiveSLA     = 4000 // cycles, the interactive class deadline above
	serveProcs         = 16
	serveShape         = "procs=16,tenants=4,span=512,depth=2,discipline=edf,policy=locality,"
	serveClosedSpec    = "closed=16,requests=%d," + serveShape + serveClasses
	serveOpenSpec      = "open=%d,duration=%d,qcap=32," + serveShape + serveClasses
	serveOpenDuration  = 1_000_000
	serveClosedRequest = 4000

	// benchResilienceSpec of bench_json_test.go with a longer request
	// stream, and its fault schedule.
	chaosSpec = "closed=8,requests=%d,procs=8,tenants=4,span=512,qcap=12," +
		"discipline=edf,policy=least-load," +
		"class=urgent:2:6:10:25:6000,class=interactive:3:12:20:25:15000,class=batch:1:48:60:50:0," +
		"kill=2,retries=2,backoff=200:1600,retry-budget=48,hedge=1500,breaker=180:2500,shed=on"
	chaosProcs    = 8
	chaosFaults   = "freeze-mem=3000:500,degrade-ring=5000:300,timeout=1500"
	chaosRequests = 3000
)

// openRates are the three fixed open-loop arrival rates, requests per
// kilocycle.
var openRates = []int{1, 2, 3}

func kernel(name string, procs, size int) simSpec {
	return simSpec{
		ID:   fmt.Sprintf("%s %d/%d", name, procs, size),
		Kind: kindKernel, Kernel: name, Procs: procs, Size: size,
	}
}

func paper(s simSpec) simSpec { s.PaperCaches = true; return s }

// parallelPair is a simulation under the parallel loop followed by its
// scheduled-loop reference.
func parallelPair(s simSpec) []simSpec {
	par, ref := s, s
	par.Parallel = true
	par.ID += " parallel"
	ref.Reference = true
	ref.ID += " scheduled-ref"
	return []simSpec{par, ref}
}

func serveSims(closedRequests int, openDuration int64) []simSpec {
	sims := []simSpec{{
		ID: "closed16", Kind: kindServe, Procs: serveProcs,
		ServeSpec: fmt.Sprintf(serveClosedSpec, closedRequests),
	}}
	for _, r := range openRates {
		sims = append(sims, simSpec{
			// The ID is also the prefix of the probe's per-layer figures.
			ID: fmt.Sprintf("open%d", r), Kind: kindServe, Procs: serveProcs, OpenRate: r,
			ServeSpec: fmt.Sprintf(serveOpenSpec, r, openDuration),
		})
	}
	return sims
}

func chaosSim(requests int) simSpec {
	return simSpec{
		ID: "chaos8", Kind: kindServe, Procs: chaosProcs, Chaos: true,
		ServeSpec: fmt.Sprintf(chaosSpec, requests),
	}
}

// allWorkloads returns the six workloads; smoke shrinks every simulation
// to a size the tier-1 test can run in a second or two.
func allWorkloads(smoke bool) []workload {
	ws := []workload{
		{
			Name:   "hit1",
			Why:    "one CPU, paper caches, 95% of cycles fast-forwarded, nearly all L1/L2 hits: proc front end and core fast-forward do the work",
			Passes: 20,
			Sims: []simSpec{
				paper(kernel("ocean", 1, 192)),
				paper(kernel("lu-contig", 1, 192)),
				paper(kernel("water-nsq", 1, 256)),
			},
		},
		{
			Name:   "miss64",
			Why:    "64 CPUs, small caches, scheduled loop, four sharing patterns: station phase, ring phase and scheduler dominate",
			Passes: 8,
			Sims: []simSpec{
				kernel("ocean", 64, 128),
				kernel("radix", 64, 32768),
				kernel("fft", 64, 16384),
				kernel("water-nsq", 64, 128),
			},
		},
		{
			Name:   "par64",
			Why:    "same layers as miss64 under ParallelStations (shards, barriers, deferred tail), each run paired with a scheduled-loop reference",
			Passes: 4,
			Sims: append(parallelPair(kernel("ocean", 64, 128)),
				parallelPair(kernel("water-nsq", 64, 128))...),
		},
		{
			Name:   "probe9",
			Why:    "Table 1: nine single-access probes on fresh paper-size machines; core.New dominates; the only accuracy figure",
			Passes: 20,
			Sims:   []simSpec{{ID: "table1", Kind: kindTable1, PaperCaches: true}},
		},
		{
			Name:   "serve",
			Why:    "machine driven as a server: closed-loop saturation scenario timed, three open-loop rate probes for latency at fixed rates",
			Passes: 8,
			Sims:   serveSims(serveClosedRequest, serveOpenDuration),
		},
		{
			Name:   "serve-chaos",
			Why:    "serving layer on its resilience path (kills, retries, hedges, breaker, shedding) under a fault schedule",
			Passes: 16,
			Sims:   []simSpec{chaosSim(chaosRequests)},
		},
	}
	if !smoke {
		return ws
	}
	for i := range ws {
		ws[i].Passes = 1
	}
	ws[0].Sims = []simSpec{paper(kernel("ocean", 1, 16)), paper(kernel("lu-contig", 1, 16)), paper(kernel("water-nsq", 1, 16))}
	ws[1].Sims = []simSpec{kernel("ocean", 4, 16), kernel("radix", 4, 256), kernel("fft", 4, 64), kernel("water-nsq", 4, 16)}
	ws[2].Sims = append(parallelPair(kernel("ocean", 4, 16)), parallelPair(kernel("water-nsq", 4, 16))...)
	ws[4].Sims = serveSims(40, 20_000)
	ws[5].Sims = []simSpec{chaosSim(40)}
	return ws
}

// selectWorkloads resolves the -workload flag ("all" or one name).
func selectWorkloads(name string, smoke bool) ([]workload, error) {
	all := allWorkloads(smoke)
	if name == "all" {
		return all, nil
	}
	names := []string{"all"}
	for _, w := range all {
		if w.Name == name {
			return []workload{w}, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
