package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// syntheticFile is a one-workload result file with the given refs_per_s
// median and quartiles; everything else is fixed.
func syntheticFile(refs, q1, q3 float64) *resultFile {
	return &resultFile{
		Schema: schema,
		Stamp:  stamp{Commit: "abc", GoVersion: "go1.x", NProc: 2, GoMaxProcs: 2, Seed: 1},
		Workloads: []workloadResult{{
			Name: "miss64", Passes: 5, Correct: true, Attempted: 24, SimDigest: "d1",
			Sims: []simSummary{{ID: "ocean 64/128", Digest: "d0", Cycles: 10, Refs: 20}},
			EndToEnd: map[string]stat{
				"refs_per_s":     {Value: refs, Q1: q1, Q3: q3, N: 3, Unit: "refs/s", Samples: []float64{q1, refs, q3}},
				"allocs_per_ref": {Value: 0.010, Q1: 0.010, Q3: 0.010, N: 5, Unit: "allocs/ref"},
				"sim_cycles":     exactStat(1000, "cycles"),
				"failed_share":   exactStat(0, "share"),
			},
			PerLayer: map[string]stat{"proc.refs": exactStat(20, "count")},
		}},
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	want := syntheticFile(1000, 990, 1010)
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the file:\n got %+v\nwant %+v", got, want)
	}
	bad := *want
	bad.Schema = "numachine-bench/0"
	if err := writeResultFile(path, &bad); err != nil {
		t.Fatal(err)
	}
	if _, err := readResultFile(path); err == nil {
		t.Error("a file of another schema was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "miss64" && f[1] == metric {
				return f[len(f)-1]
			}
		}
		return "missing"
	}
	base := syntheticFile(1000, 990, 1010)
	cases := []struct {
		name    string
		change  func() *resultFile
		metric  string
		verdict string
		bad     int
	}{
		{"same", func() *resultFile { return syntheticFile(1000, 990, 1010) }, "refs_per_s", verdictOK, 0},
		{"within the bound", func() *resultFile { return syntheticFile(950, 940, 960) }, "refs_per_s", verdictOK, 0},
		{"faster", func() *resultFile { return syntheticFile(1500, 1490, 1510) }, "refs_per_s", verdictOK, 0},
		{"slower beyond the bound", func() *resultFile { return syntheticFile(850, 840, 860) }, "refs_per_s", verdictRegressed, 1},
		{"spread wider than the bound", func() *resultFile { return syntheticFile(980, 850, 1100) }, "refs_per_s", verdictUnresolved, 0},
		{"slower, with a spread wider than the bound", func() *resultFile { return syntheticFile(870, 780, 960) }, "refs_per_s", verdictUnresolved, 0},
		{"wide spread, but every pass faster than every base pass", func() *resultFile {
			f := syntheticFile(1500, 1300, 1700)
			st := f.Workloads[0].EndToEnd["refs_per_s"]
			st.Samples = []float64{1200, 1500, 1800}
			f.Workloads[0].EndToEnd["refs_per_s"] = st
			return f
		}, "refs_per_s", verdictOK, 0},
		{"allocs within the absolute slack", func() *resultFile {
			f := syntheticFile(1000, 990, 1010)
			f.Workloads[0].EndToEnd["allocs_per_ref"] = stat{Value: 0.014, Q1: 0.014, Q3: 0.014, N: 5, Unit: "allocs/ref"}
			return f
		}, "allocs_per_ref", verdictOK, 0},
		{"allocs beyond the slack", func() *resultFile {
			f := syntheticFile(1000, 990, 1010)
			f.Workloads[0].EndToEnd["allocs_per_ref"] = stat{Value: 0.016, Q1: 0.016, Q3: 0.016, N: 5, Unit: "allocs/ref"}
			return f
		}, "allocs_per_ref", verdictRegressed, 1},
		{"exact metric moved", func() *resultFile {
			f := syntheticFile(1000, 990, 1010)
			f.Workloads[0].EndToEnd["sim_cycles"] = exactStat(1001, "cycles")
			return f
		}, "sim_cycles", verdictMismatch, 1},
		{"digest moved", func() *resultFile {
			f := syntheticFile(1000, 990, 1010)
			f.Workloads[0].SimDigest = "d2"
			return f
		}, "sim_digest", verdictMismatch, 1},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		bad, err := compareFiles(&buf, base, c.change())
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := verdictOf(buf.String(), c.metric); got != c.verdict || bad != c.bad {
			t.Errorf("%s: %s verdict %q with %d bad, want %q with %d\n%s", c.name, c.metric, got, bad, c.verdict, c.bad, buf.String())
		}
		identical := strings.Contains(buf.String(), "simulated statistics identical: yes")
		if want := c.name != "digest moved"; identical != want {
			t.Errorf("%s: identical line says %v, want %v", c.name, identical, want)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	base := syntheticFile(1000, 990, 1010)
	for name, mutate := range map[string]func(*resultFile){
		"seed":       func(f *resultFile) { f.Stamp.Seed = 2 },
		"gomaxprocs": func(f *resultFile) { f.Stamp.GoMaxProcs = 4 },
		"seconds":    func(f *resultFile) { f.Stamp.Seconds = 8 },
		"passes":     func(f *resultFile) { f.Workloads[0].Passes = 6 },
		"smoke":      func(f *resultFile) { f.Stamp.Smoke = true },
		"workloads":  func(f *resultFile) { f.Workloads[0].Name = "hit1" },
	} {
		other := syntheticFile(1000, 990, 1010)
		mutate(other)
		var buf bytes.Buffer
		if _, err := compareFiles(&buf, base, other); err == nil {
			t.Errorf("compare accepted files whose %s differ", name)
		}
	}
}
