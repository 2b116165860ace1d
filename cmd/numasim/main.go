// Command numasim runs one workload on a configured NUMAchine and prints
// the monitoring results: cycle counts, network cache effectiveness,
// communication path utilizations and ring interface delays.
//
// Usage:
//
//	numasim -workload radix -procs 64 -size 16384
//	numasim -workload barnes -procs 16 -stations 2 -rings 2
//	numasim -workload fft -procs 8 -trace trace.json   # Perfetto trace
//	numasim -workload radix -procs 64 -http :8080      # live metrics
//	numasim -workload fft -procs 8 -fault-spec 'drop=1e-3' -fault-seed 7
//	numasim -serve -serve-spec 'open=2,duration=100000,procs=16' -serve-seed 7
//	numasim -serve -fault-spec 'freeze-mem=4000:600,drop=0.02,timeout=1500' \
//	        -serve-spec 'open=2,duration=100000,kill=4,retries=2,shed=on'   # resilience under faults
//	numasim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"numachine/internal/core"
	"numachine/internal/profile"
	"numachine/internal/serve"
	"numachine/internal/sim"
	"numachine/internal/telemetry"
	"numachine/internal/topo"
	"numachine/internal/trace"
	"numachine/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "radix", "workload to run (see -list)")
		procs    = flag.Int("procs", 64, "number of processors to use")
		size     = flag.Int("size", 0, "problem size (0 = workload default)")
		pps      = flag.Int("procs-per-station", 4, "processors per station")
		spr      = flag.Int("stations-per-ring", 4, "stations per local ring")
		rings    = flag.Int("rings", 4, "local rings on the central ring")
		l2       = flag.Int("l2-lines", 16384, "secondary cache lines per processor")
		nc       = flag.Int("nc-lines", 65536, "network cache lines per station")
		noSC     = flag.Bool("no-sc-locking", false, "disable sequential-consistency locking (§2.3 ablation)")
		fastHits = flag.Bool("fast-hits", true, "resolve cache hits in the workload front end (bit-identical; disable to A/B against the lock-step handshake)")
		list     = flag.Bool("list", false, "list available workloads and exit")

		serveOn   = flag.Bool("serve", false, "run the multi-tenant serving layer instead of a workload")
		serveSpec = flag.String("serve-spec", "", "serving scenario, e.g. 'open=2,duration=100000,policy=locality' plus resilience clauses kill=/retries=/backoff=/retry-budget=/hedge=/breaker=/shed= (empty = built-in default)")
		serveSeed = flag.Uint64("serve-seed", 1, "seed for the serving load generator (same spec+seed = same report)")

		faultSpec = flag.String("fault-spec", "", "fault schedule, e.g. 'drop=2e-4,dup=1e-4,freeze-mem=50000:400,degrade-ring=20000:300' (empty = fault-free)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the deterministic fault injector (same seed+spec = same run)")
		backoff   = flag.Bool("retry-backoff", false, "bounded exponential NAK backoff with per-requester jitter (auto-enabled by -fault-spec)")

		traceOut = flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON file (open in ui.perfetto.dev)")
		traceEvt = flag.Int("trace-events", trace.DefaultSinkEvents, "per-component trace ring-buffer capacity (oldest events drop first)")
		httpAddr = flag.String("http", "", "serve live metrics on this address (e.g. :8080)")
		sample   = flag.Int64("sample", 50_000, "cycles between live-metrics snapshots")
		hold     = flag.Bool("hold", false, "with -http: keep serving after the run completes (ctrl-C to exit)")
	)
	prof := profile.AddFlags()
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}

	stopProf, err := prof.Start()
	if err != nil {
		fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: *pps, StationsPerRing: *spr, Rings: *rings}
	cfg.Params.L2Lines = *l2
	cfg.Params.NCLines = *nc
	cfg.Params.SCLocking = !*noSC
	cfg.FastHits = *fastHits
	cfg.FaultSpec = *faultSpec
	cfg.FaultSeed = *faultSeed
	if *backoff || *faultSpec != "" {
		// Faulted runs convoy retries; backoff keeps them from living on
		// the NAK treadmill. Fault-free runs keep the fixed retry delay so
		// existing outputs stay byte-identical unless asked.
		cfg.Params.RetryBackoff = true
		cfg.Params.RetryJitterSeed = *faultSeed
	}

	m, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	var (
		inst *workloads.Instance
		ctl  *serve.Controller
		name string
	)
	if *serveOn {
		sp, err := serve.ParseSpec(*serveSpec)
		if err != nil {
			fatal(err)
		}
		if ctl, err = serve.New(m, sp, *serveSeed); err != nil {
			fatal(err)
		}
		name = "serve"
	} else {
		if inst, err = workloads.Build(*workload, m, *procs, *size); err != nil {
			fatal(err)
		}
		m.Load(inst.Progs)
		name = inst.Name
	}

	loop := cfg.LoopName()
	if *traceOut != "" {
		m.EnableTrace(*traceEvt)
	}
	var srv *telemetry.Server
	if *httpAddr != "" {
		srv = telemetry.NewServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("live metrics     http://%s/\n", addr)
		m.SetSampler(*sample, func(m *core.Machine) {
			srv.Publish(telemetry.SnapshotOf(m, name, loop, false))
		})
	}

	run := m.Run
	if ctl != nil {
		run = ctl.Run
	}
	cycles, abort := runOrAbort(run)
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if abort != "" {
		fmt.Fprintln(os.Stderr, "numasim:", abort)
		fmt.Fprintln(os.Stderr, "numasim: repro:", reproLine())
		if *traceOut != "" {
			writeTrace(m, *traceOut) // the ring buffers hold the window before the abort
		}
		os.Exit(1)
	}
	if srv != nil {
		srv.Publish(telemetry.SnapshotOf(m, name, loop, true))
	}
	if inst != nil {
		if err := inst.Check(); err != nil {
			fatal(fmt.Errorf("result check failed: %w", err))
		}
	}
	if err := m.CheckCoherence(); err != nil {
		fatal(fmt.Errorf("coherence check failed: %w", err))
	}

	r := m.Results()
	if ctl != nil {
		fmt.Printf("workload         serving layer, spec %q\n", r.Serve.Spec)
	} else {
		fmt.Printf("workload         %s (size default=%v) on %d processors\n", inst.Name, *size == 0, *procs)
	}
	fmt.Printf("geometry         %d procs/station x %d stations/ring x %d rings\n",
		cfg.Geom.ProcsPerStation, cfg.Geom.StationsPerRing, cfg.Geom.Rings)
	fmt.Printf("parallel section %d cycles (%.2f ms at %d MHz)\n",
		cycles, sim.CyclesToNS(cycles)/1e6, sim.CPUClockMHz)
	r.WriteReport(os.Stdout, cfg.FaultLabel())

	if *traceOut != "" {
		writeTrace(m, *traceOut)
	}
	if srv != nil && *hold {
		fmt.Println("holding for live metrics; interrupt to exit")
		select {}
	}
}

// runOrAbort runs the simulation. The machine aborts a run (watchdog,
// starvation detector, invariant check, panicking program) by panicking
// with its report as a string; that comes back as abort. Any other panic
// value is a simulator bug and keeps its goroutine dump.
func runOrAbort(run func() int64) (cycles int64, abort string) {
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok {
				panic(r)
			}
			abort = strings.TrimRight(msg, "\n\t ")
		}
	}()
	return run(), ""
}

// writeTrace writes the machine's trace buffers as a Chrome/Perfetto file.
func writeTrace(m *core.Machine, path string) {
	tr := m.Tracer()
	if err := tr.WriteChromeFile(path); err != nil {
		fatal(err)
	}
	fmt.Printf("trace            %s: %d events (%d dropped to ring-buffer wrap)\n",
		path, len(tr.Events()), tr.Dropped())
}

// reproLine renders the flags this run was given as one shell command.
func reproLine() string {
	var b strings.Builder
	b.WriteString("numasim")
	flag.Visit(func(f *flag.Flag) {
		v := f.Value.String()
		if v == "" || strings.Trim(v, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./:=,+") != "" {
			v = "'" + strings.ReplaceAll(v, "'", `'\''`) + "'"
		}
		fmt.Fprintf(&b, " -%s=%s", f.Name, v)
	})
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "numasim:", err)
	os.Exit(1)
}
