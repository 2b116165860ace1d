package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload x end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // a run's spread is wider than the bound: no call either way
	verdictMismatch   = "MISMATCH"   // an exact metric differs
)

// judge compares metric d of the base run a with the changed run b.
// Where either run's spread (interquartile distance over median) is
// wider than the bound, two medians cannot tell a regression from noise:
// the pairing is unresolved — not unchanged — unless every pass of b
// reads better than every pass of a.
func judge(d metricDef, a, b stat) string {
	if d.Exact {
		if a.Value == b.Value {
			return verdictOK
		}
		return verdictMismatch
	}
	base := math.Abs(a.Value)
	if base == 0 {
		if b.Value == 0 {
			return verdictOK
		}
		return verdictUnresolved
	}
	worse := (b.Value - a.Value) / base
	if d.Better == "higher" {
		worse = -worse
	}
	allowed := math.Max(d.Bound, d.Slack/base)
	switch {
	case math.Max(a.spread(), b.spread()) > allowed:
		if allBetter(d, a.Samples, b.Samples) {
			return verdictOK
		}
		return verdictUnresolved
	case worse > allowed:
		return verdictRegressed
	}
	return verdictOK
}

// allBetter reports whether every sample of b is better than every
// sample of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if d.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// comparable refuses to set two result files side by side when their
// inputs differ: the verdicts would compare workloads, not code.
func comparable(a, b *resultFile) error {
	sa, sb := a.Stamp, b.Stamp
	switch {
	case sa.Seed != sb.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", sa.Seed, sb.Seed)
	case sa.GoMaxProcs != sb.GoMaxProcs:
		return fmt.Errorf("host.gomaxprocs differ: %d vs %d", sa.GoMaxProcs, sb.GoMaxProcs)
	case sa.Seconds != sb.Seconds:
		return fmt.Errorf("pass plans differ: -seconds %d vs %d", sa.Seconds, sb.Seconds)
	case sa.Smoke != sb.Smoke:
		return fmt.Errorf("one file is a -smoke run")
	}
	if sa.Seconds > 0 {
		return nil // time-driven passes: the count follows the host's speed
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		if wb := findWorkload(b, wa.Name); wb != nil && wa.Passes != wb.Passes {
			return fmt.Errorf("workload %s: pass counts differ: %d vs %d", wa.Name, wa.Passes, wb.Passes)
		}
	}
	return nil
}

func findWorkload(f *resultFile, name string) *workloadResult {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

// compareFiles prints one row per workload x end-to-end metric and
// returns how many pairings regressed or mismatched.
func compareFiles(w io.Writer, a, b *resultFile) (bad int, err error) {
	if err := comparable(a, b); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "base   A: commit %s%s\nchange B: commit %s%s\n", a.Stamp.Commit, dirtyMark(a.Stamp), b.Stamp.Commit, dirtyMark(b.Stamp))
	fmt.Fprintf(w, "%-12s %-20s %14s %26s %14s %26s %9s  %s\n",
		"workload", "metric", "A median", "[q1 .. q3]", "B median", "[q1 .. q3]", "B/A", "verdict")
	identical := true
	shared := 0
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := findWorkload(b, wa.Name)
		if wb == nil {
			continue
		}
		shared++
		for _, d := range endToEndDefs {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(d, sa, sb)
			if verdict == verdictRegressed || verdict == verdictMismatch {
				bad++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.6g %26s %14.6g %26s %9.4f  %s\n",
				wa.Name, d.Name, sa.Value, quartiles(d, sa), sb.Value, quartiles(d, sb), ratio(sb.Value, sa.Value), verdict)
		}
		digests := verdictOK
		if wa.SimDigest != wb.SimDigest {
			digests = verdictMismatch
			identical = false
			bad++
		}
		fmt.Fprintf(w, "%-12s %-20s %14s %26s %14s %26s %9s  %s\n",
			wa.Name, "sim_digest", wa.SimDigest, "", wb.SimDigest, "", "", digests)
		for _, r := range []*workloadResult{wa, wb} {
			if !r.Correct {
				bad++
				fmt.Fprintf(w, "%-12s a run of this workload failed its checks: %v\n", r.Name, r.Failures)
			}
		}
	}
	if shared == 0 {
		return 0, fmt.Errorf("the two files share no workload")
	}
	if identical {
		fmt.Fprintln(w, "simulated statistics identical: yes")
	} else {
		fmt.Fprintln(w, "simulated statistics identical: no")
	}
	return bad, nil
}

func dirtyMark(s stamp) string {
	if s.Dirty {
		return " (dirty)"
	}
	return ""
}

func quartiles(d metricDef, s stat) string {
	if d.Exact {
		return "exact"
	}
	return fmt.Sprintf("[%.5g .. %.5g] n=%d", s.Q1, s.Q3, s.N)
}

func cmdCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare A.json B.json")
	}
	a, err := readResultFile(args[0])
	if err != nil {
		return err
	}
	b, err := readResultFile(args[1])
	if err != nil {
		return err
	}
	bad, err := compareFiles(w, a, b)
	if err != nil {
		return fmt.Errorf("compare refused: %w", err)
	}
	if bad > 0 {
		return fmt.Errorf("%d pairing(s) regressed or differ where they must be exact", bad)
	}
	return nil
}
