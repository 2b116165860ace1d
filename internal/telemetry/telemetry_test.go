package telemetry

import (
	"encoding/json"
	"html"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/proc"
	"numachine/internal/topo"
)

// runSampled runs a small two-station workload with the sampler
// publishing into srv, returning the machine.
func runSampled(t *testing.T, srv *Server) *core.Machine {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 1}
	cfg.Params.DeadlockCycles = 2_000_000
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := m.AllocLines(8)
	prog := func(c *proc.Ctx) {
		for i := 0; i < 50; i++ {
			c.SetPhase(uint8(1 + i%2))
			c.Write(shared+uint64((c.ID+i)%8)*64, uint64(i))
			c.Read(shared + uint64(i%8)*64)
		}
		c.Barrier()
	}
	progs := make([]proc.Program, m.Geometry().Procs())
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.SetSampler(200, func(m *core.Machine) {
		srv.Publish(SnapshotOf(m, "test", "scheduled", false))
	})
	m.Run()
	srv.Publish(SnapshotOf(m, "test", "scheduled", true))
	return m
}

// TestMetricsEndpoint drives the full path: a live run publishing
// through the sampler, then the JSON endpoint serving the final
// snapshot with consistent derived rates and phase attribution.
func TestMetricsEndpoint(t *testing.T) {
	srv := NewServer()
	m := runSampled(t, srv)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics.json does not decode: %v", err)
	}
	if !snap.Done || snap.Workload != "test" || snap.Loop != "scheduled" {
		t.Errorf("snapshot header wrong: %+v", snap)
	}
	if snap.Cycle != m.Now() {
		t.Errorf("snapshot cycle %d != machine %d", snap.Cycle, m.Now())
	}
	if snap.Results.Proc.Reads == 0 || snap.Results.Proc.Writes == 0 {
		t.Errorf("results not captured: %+v", snap.Results.Proc)
	}
	// The workload attributes every transaction to phases 1 and 2.
	if len(snap.PhaseTransactions) == 0 {
		t.Error("no phase transactions recorded")
	}
	for ph := range snap.PhaseTransactions {
		if ph != 1 && ph != 2 {
			t.Errorf("transaction attributed to unset phase %d", ph)
		}
	}
	if got := len(snap.CurrentPhases); got != m.Geometry().Procs() {
		t.Errorf("CurrentPhases has %d entries, want %d", got, m.Geometry().Procs())
	}
	// Every processor's last SetPhase (i = 49) wrote phase 2.
	for i, ph := range snap.CurrentPhases {
		if ph != 2 {
			t.Errorf("CurrentPhases[%d] = %d, want 2", i, ph)
		}
	}
	if r := snap.NCRates; r.Hit != snap.Results.NC.HitRate() {
		t.Errorf("precomputed hit rate %v != %v", r.Hit, snap.Results.NC.HitRate())
	}
}

// TestHTMLView checks the human page renders the published snapshot and
// unknown paths 404.
func TestHTMLView(t *testing.T) {
	srv := NewServer()
	srv.Publish(&Snapshot{Workload: "radix", Cycle: 12345})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET / = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"radix", "12345", "metrics.json"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML view missing %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d, want 404", rec.Code)
	}
}

// TestHTMLServeRows checks the page serves the statistics block numasim
// prints, the serving report included exactly when a run has one.
func TestHTMLServeRows(t *testing.T) {
	srv := NewServer()
	snap := &Snapshot{Workload: "serve", Cycle: 99}
	snap.Results.Serve = &core.ServeResults{
		Policy: "locality", Discipline: "edf", Cycles: 1000,
	}
	snap.Results.Serve.Total.Arrived = 42
	snap.Results.Serve.Total.Completed = 40
	srv.Publish(snap)

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	body := rec.Body.String()
	var report strings.Builder
	snap.Results.WriteReport(&report, "")
	for _, want := range []string{html.EscapeString(report.String()), "policy=locality discipline=edf", "42 arrived, 40 completed"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML view missing %q:\n%s", want, body)
		}
	}

	srv.Publish(&Snapshot{Workload: "radix"})
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if strings.Contains(rec.Body.String(), "policy=") {
		t.Error("serve rows rendered for a run without a serving layer")
	}
}

// TestStartClose exercises the real listener path with an ephemeral
// port.
func TestStartClose(t *testing.T) {
	srv := NewServer()
	srv.Publish(&Snapshot{Workload: "w", Cycle: 7})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cycle != 7 {
		t.Errorf("served cycle %d, want 7", snap.Cycle)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
