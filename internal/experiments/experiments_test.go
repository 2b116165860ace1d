package experiments

import (
	"slices"
	"testing"

	"numachine/internal/core"
	"numachine/internal/serve"
)

// TestResilienceArms: the arms come from the clause keys of the resilience
// clauses — the bare spec, all of them, and all but each mechanism they
// name, retries leaving with their back-off and budget — and every arm
// parses as a serving spec.
func TestResilienceArms(t *testing.T) {
	const all = "kill=2,retries=2,backoff=200:1600,retry-budget=32,hedge=1500,breaker=180:2500,shed=on"
	want := []resilienceArm{
		{"baseline", ""},
		{"all", all},
		{"-hedge", "kill=2,retries=2,backoff=200:1600,retry-budget=32,breaker=180:2500,shed=on"},
		{"-breaker", "kill=2,retries=2,backoff=200:1600,retry-budget=32,hedge=1500,shed=on"},
		{"-shed", "kill=2,retries=2,backoff=200:1600,retry-budget=32,hedge=1500,breaker=180:2500"},
		{"-retries", "kill=2,hedge=1500,breaker=180:2500,shed=on"},
	}
	got := resilienceArms(all)
	if !slices.Equal(got, want) {
		t.Fatalf("arms of %q:\n got %q\nwant %q", all, got, want)
	}
	for _, arm := range got {
		if _, err := serve.ParseSpec("open=1,duration=100," + arm.clauses); err != nil {
			t.Errorf("arm %s: %v", arm.name, err)
		}
	}
}

// TestTable1ReproducesPaperShape verifies the calibration against the
// paper's Table 1: each measured latency within a documented tolerance of
// the published value, and the qualitative orderings exact.
func TestTable1ReproducesPaperShape(t *testing.T) {
	rows, err := Table1(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	get := func(access, scope string) int64 {
		for _, r := range rows {
			if r.Access == access && r.Scope == scope {
				return r.Cycles
			}
		}
		t.Fatalf("missing row %s/%s", access, scope)
		return 0
	}
	// Quantitative: within 35% of the paper's cycle counts.
	for _, r := range rows {
		lo := float64(r.PaperCycle) * 0.65
		hi := float64(r.PaperCycle) * 1.35
		if f := float64(r.Cycles); f < lo || f > hi {
			t.Errorf("%s/%s = %d cycles, outside 35%% of paper's %d",
				r.Scope, r.Access, r.Cycles, r.PaperCycle)
		}
	}
	// Qualitative orderings from the paper.
	scopes := []string{"Local", "Remote, same ring", "Remote, different ring"}
	for i := 1; i < len(scopes); i++ {
		for _, a := range []string{"Read", "Upgrade", "Intervention"} {
			if get(a, scopes[i]) <= get(a, scopes[i-1]) {
				t.Errorf("%s: %q not slower than %q", a, scopes[i], scopes[i-1])
			}
		}
	}
	for _, s := range scopes {
		if get("Upgrade", s) >= get("Read", s) {
			t.Errorf("%s: upgrade not cheaper than read", s)
		}
		if get("Intervention", s) < get("Read", s) {
			t.Errorf("%s: intervention cheaper than read", s)
		}
	}
}
