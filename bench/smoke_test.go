package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// decodeContractLine parses the contract's last line and checks that
// every listed metric is there with a finite value and its unit.
func decodeContractLine(t *testing.T, line string, want []metricDef) map[string]contractMetric {
	t.Helper()
	var got struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]contractMetric
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, line)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
		t.Errorf("last line reports correct=%v attempted=%v failed=%v", got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("last line carries %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := got.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s is missing", d.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.Name, m.Value, m.Unit, d.Unit)
		}
	}
	return got.Metrics
}

// Every workload, at tiny sizes: the simulations pass their checks, every
// end-to-end metric that applies is present, finite and non-zero, and
// the untraced contract line carries BENCHMARK.json's end-to-end list.
func TestSmokeEveryWorkload(t *testing.T) {
	file, err := run(options{Workload: "all", Seed: 3, Smoke: true}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != 6 {
		t.Fatalf("ran %d workloads, want 6", len(file.Workloads))
	}
	serving := map[string]bool{"serve": true, "serve-chaos": true}
	for i := range file.Workloads {
		r := &file.Workloads[i]
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: failed its checks: %v", r.Name, r.Failures)
		}
		for _, d := range endToEndDefs {
			applies := true
			switch d.Name {
			case "req_per_wall_s", "req_per_kcycle", "goodput_per_kcycle", "lat_p50_cycles", "lat_p99_cycles":
				applies = serving[r.Name]
			case "max_rate_under_sla":
				applies = r.Name == "serve"
			case "table1_max_err_pct":
				applies = r.Name == "probe9"
			}
			s, ok := r.EndToEnd[d.Name]
			if ok != applies {
				t.Errorf("%s: metric %s present=%v, want %v", r.Name, d.Name, ok, applies)
			}
			if !ok {
				continue
			}
			zeroOK := d.Name == "failed_share" || d.Name == "max_rate_under_sla"
			if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) || s.Unit != d.Unit || (s.Value == 0 && !zeroOK) {
				t.Errorf("%s: %s = %v %q", r.Name, d.Name, s.Value, s.Unit)
			}
		}
		if r.EndToEnd["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share %v at smoke size, want 0", r.Name, r.EndToEnd["failed_share"].Value)
		}
		line, err := contractLine(r, false)
		if err != nil {
			t.Fatal(err)
		}
		var want []metricDef
		for _, c := range contractBounds {
			d, _ := defByName(endToEndDefs, c.Name)
			want = append(want, d)
		}
		for name, m := range decodeContractLine(t, line, want) {
			if m.Value == 0 {
				t.Errorf("%s: contract metric %s is 0; the driver divides by its median", r.Name, name)
			}
		}
	}
}

// The traced run of the cheapest workload: spans, a profile, every
// per-layer metric on the contract line, CPU shares that sum to 100, and
// digests that tracing did not move.
func TestSmokeTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go tool pprof")
	}
	dir := t.TempDir()
	file, err := run(options{Workload: "serve-chaos", Seed: 3, Smoke: true, Trace: true, TraceDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r := &file.Workloads[0]
	if !r.Correct {
		t.Errorf("traced run failed its checks (a digest moved under tracing?): %v", r.Failures)
	}
	line, err := contractLine(r, true)
	if err != nil {
		t.Fatal(err)
	}
	decodeContractLine(t, line, contractPerLayer())
	for _, name := range []string{"spans.json", "serve-chaos.pprof"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("traced run left no %s: %v", name, err)
		}
	}
	var spans []span
	data, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Errorf("span %+v is malformed", s)
		}
	}
	for _, want := range []string{"workload:serve-chaos", "traced pass 1", "simulation:chaos8", "core.new", "serve.parse", "serve.new", "serve.run", "serve.report", "core.results"} {
		if !names[want] {
			t.Errorf("spans.json has no %q span", want)
		}
	}
	for _, name := range []string{"trace.overhead_pct", "core.multi_p_penalty", "core.interval_n", "trace.profile_samples"} {
		if _, ok := r.PerLayer[name]; !ok {
			t.Errorf("traced run reports no %s", name)
		}
	}
	// A smoke pass is too short for the profile's sample floor; the
	// shares are then withheld and the reason noted.
	if _, ok := r.PerLayer["core.cpu_share"]; !ok && len(r.Notes) == 0 {
		t.Error("cpu shares are missing without a note saying why")
	}
}
