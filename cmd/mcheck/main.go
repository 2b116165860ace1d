// Command mcheck runs the explicit-state model checker over the coherence
// protocol: exhaustive exploration of a small configuration's issue
// interleavings, NAK retry orderings and (optionally) fault-injector
// decisions, with invariant checks at every state.
//
// Exhaustive sweep of the flagship 2×2×1 configuration:
//
//	mcheck
//
// Inject a deliberate protocol defect and find its counterexample:
//
//	mcheck -mutation skip-net-inval -ops r0,w0 -procs 1 -delays 0,160 -retry-deltas 0 -stop-first
//
// A liveness counterexample is followed by the machine's stuck-transaction
// report.
//
// Replay a counterexample into a Perfetto trace:
//
//	mcheck -replay 010001 -trace ce.trace.json
//
// The exit status is 0 for a clean complete sweep, 1 for any violation,
// and 2 for an incomplete exploration (budget exhausted).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"numachine/internal/mcheck"
	"numachine/internal/memory"
)

func main() {
	spec := mcheck.DefaultSpec()
	var (
		stations  = flag.Int("stations", spec.Stations, "stations on the ring (1..4)")
		procs     = flag.Int("procs", spec.Procs, "processors per station (1..4)")
		lines     = flag.Int("lines", spec.Lines, "cache lines the drivers touch (1..4)")
		ops       = flag.String("ops", "", "comma-separated per-CPU programs, e.g. w0r0,r0 (default: every CPU w0r0)")
		delays    = flag.String("delays", i64s(spec.Delays), "comma-separated issue-delay menu in cycles")
		retries   = flag.String("retry-deltas", i64s(spec.RetryDeltas), "comma-separated NAK retry delta menu in cycles")
		faults    = flag.Bool("faults", false, "explore fault-injector drop/dup decisions")
		maxFaults = flag.Int("max-faults", 1, "fault budget per path (with -faults)")
		maxStates = flag.Int("max-states", spec.MaxStates, "visited-state budget")
		maxDepth  = flag.Int("max-depth", spec.MaxDepth, "choice-depth budget per path")
		maxCycles = flag.Int64("max-cycles", spec.MaxCycles, "cycle budget per path (exceeding it is a liveness violation)")
		maxRetry  = flag.Int("max-retries", spec.MaxRetries, "consecutive-NAK budget per reference")
		mutation  = flag.String("mutation", "", "deliberate protocol defect to inject (see -list-mutations)")
		listMuts  = flag.Bool("list-mutations", false, "list known mutations and exit")
		stopFirst = flag.Bool("stop-first", false, "stop at the first violation")
		replay    = flag.String("replay", "", "hex counterexample to replay instead of exploring")
		traceFile = flag.String("trace", "", "write a Perfetto (Chrome JSON) trace of the replayed path to this file (with -replay)")
	)
	flag.Parse()

	if *listMuts {
		for _, mc := range mcheck.MutationTable() {
			fmt.Printf("%-22s %s\n", mc.Name, mc.Expect)
		}
		return
	}

	spec.Stations = *stations
	spec.Procs = *procs
	spec.Lines = *lines
	spec.MaxStates = *maxStates
	spec.MaxDepth = *maxDepth
	spec.MaxCycles = *maxCycles
	spec.MaxRetries = *maxRetry
	spec.FaultChoices = *faults
	if *faults {
		spec.MaxFaults = *maxFaults
	}
	if *ops != "" {
		spec.Ops = strings.Split(*ops, ",")
	}
	var err error
	if spec.Delays, err = parseI64s(*delays); err != nil {
		fatal("bad -delays: %v", err)
	}
	if spec.RetryDeltas, err = parseI64s(*retries); err != nil {
		fatal("bad -retry-deltas: %v", err)
	}

	c, err := mcheck.New(spec)
	if err != nil {
		fatal("%v", err)
	}
	c.StopAtFirst = *stopFirst
	if *mutation != "" {
		mu := memory.MutNone // -mutation takes the names -list-mutations prints
		for _, mc := range mcheck.MutationTable() {
			if mc.Name == *mutation {
				mu = mc.Mut
			}
		}
		if mu == memory.MutNone {
			fatal("unknown mutation %q (see -list-mutations)", *mutation)
		}
		c.SetMutation(mu)
	}

	if *replay != "" {
		choices, err := mcheck.ParseChoices(*replay)
		if err != nil {
			fatal("%v", err)
		}
		events := 0
		if *traceFile != "" {
			events = 1 << 16
		}
		tr, vio := c.Replay(choices, events)
		if *traceFile != "" && tr != nil {
			if err := tr.WriteChromeFile(*traceFile); err != nil {
				fatal("writing trace: %v", err)
			}
			fmt.Printf("trace written to %s (%d events, %d dropped)\n", *traceFile, len(tr.Events()), tr.Dropped())
		}
		if vio != nil {
			fmt.Printf("replay reproduces violation: %s\n", vio.String())
			os.Exit(1)
		}
		fmt.Println("replay completed cleanly (no violation on this path)")
		return
	}

	res := c.Run()
	fmt.Println(res.String())
	switch {
	case len(res.Violations) > 0:
		os.Exit(1)
	case !res.Complete:
		fmt.Fprintln(os.Stderr, "mcheck: exploration incomplete: a budget was exhausted before the fixpoint")
		os.Exit(2)
	}
}

func i64s(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

func parseI64s(s string) ([]int64, error) {
	var out []int64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcheck: "+format+"\n", args...)
	os.Exit(1)
}
