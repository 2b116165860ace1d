// Package telemetry serves live simulation metrics over HTTP. A Server
// holds the most recently published Snapshot behind an atomic pointer;
// the machine's sampler (core.Machine.SetSampler) publishes a fresh
// snapshot every N cycles from a serial point of the run loop, and HTTP
// handlers read whatever snapshot is current without ever touching the
// machine — the simulation never blocks on a slow client.
//
// Routes: /metrics.json returns the snapshot as JSON; / returns a small
// self-refreshing HTML view of the headline numbers.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"numachine/internal/core"
)

// Snapshot is one published view of the running simulation. All fields
// are plain values copied out of the machine at a serial point, so a
// snapshot is immutable once published.
type Snapshot struct {
	Workload string `json:"workload,omitempty"`
	Loop     string `json:"loop,omitempty"`
	Cycle    int64  `json:"cycle"`
	Done     bool   `json:"done"`
	// FastForwarded counts cycles skipped by quiescence fast-forwarding.
	FastForwarded int64 `json:"fast_forwarded"`

	// Results carries the full statistics snapshot: utilizations, NC hit
	// rates, delays, per-module counters.
	Results core.Results `json:"results"`

	// NCRates are the derived Figure 15/16-style rates, precomputed so
	// consumers need not reimplement the rate definitions.
	NCRates NCRates `json:"nc_rates"`

	// PhaseTransactions maps phase identifier -> transactions attributed
	// to it (§3.3.4); CurrentPhases is each processor's live phase
	// register.
	PhaseTransactions map[uint8]int64 `json:"phase_transactions,omitempty"`
	CurrentPhases     []uint8         `json:"current_phases,omitempty"`
}

// NCRates are the network-cache rate metrics with their zero-denominator
// conventions already applied.
type NCRates struct {
	Hit         float64 `json:"hit"`
	Migration   float64 `json:"migration"`
	Caching     float64 `json:"caching"`
	Combining   float64 `json:"combining"`
	FalseRemote float64 `json:"false_remote"`
}

// SnapshotOf captures the machine's current state. Must be called from a
// serial point (the run-loop sampler, or after Run returns); it relies
// on the machine's idempotent statistics reconciliation, so sampling
// mid-run does not perturb the simulation.
func SnapshotOf(m *core.Machine, workload, loop string, done bool) *Snapshot {
	r := m.Results()
	return &Snapshot{
		Workload:      workload,
		Loop:          loop,
		Cycle:         m.Now(),
		Done:          done,
		FastForwarded: m.FastForwarded.Value(),
		Results:       r,
		NCRates: NCRates{
			Hit:         r.NC.HitRate(),
			Migration:   r.NC.MigrationRate(),
			Caching:     r.NC.CachingRate(),
			Combining:   r.NC.CombiningRate(),
			FalseRemote: r.NC.FalseRemoteRate(),
		},
		PhaseTransactions: m.PhaseTransactions(),
		CurrentPhases:     m.Phases.Snapshot(),
	}
}

// Server publishes snapshots to HTTP clients.
type Server struct {
	cur atomic.Pointer[Snapshot]
	mux *http.ServeMux
	ln  net.Listener
}

// NewServer creates a server with an empty initial snapshot.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux()}
	s.cur.Store(&Snapshot{})
	s.mux.HandleFunc("/metrics.json", s.serveJSON)
	s.mux.HandleFunc("/", s.serveHTML)
	return s
}

// Publish makes snap the snapshot served to subsequent requests.
func (s *Server) Publish(snap *Snapshot) { s.cur.Store(snap) }

// Handler returns the HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, so callers may
// pass port 0 and discover the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	// Serve returns with an error once Close tears the listener down;
	// there is nothing useful to do with it.
	go func() { _ = http.Serve(ln, s.mux) }()
	return ln.Addr().String(), nil
}

// Close stops the listener started by Start.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.ln.Close()
}

func (s *Server) serveJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client hung up mid-response.
	_ = enc.Encode(s.cur.Load())
}

func (s *Server) serveHTML(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.cur.Load()
	state := "running"
	if snap.Done {
		state = "done"
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, htmlPage,
		snap.Workload, state, snap.Cycle, snap.FastForwarded,
		100*snap.Results.BusUtil, 100*snap.Results.LocalRingUtil,
		100*snap.Results.CentralRingUtil,
		100*snap.NCRates.Hit, 100*snap.NCRates.Migration,
		100*snap.NCRates.Caching, 100*snap.NCRates.Combining,
		snap.Results.NC.Requests, snap.Results.Mem.Transactions,
		snap.Results.Proc.NAKRetries, snap.Results.Proc.RetryStreaks,
		snap.Results.Fault.Drops, snap.Results.Fault.Dups,
		snap.Results.Fault.TimeoutReissues,
		serveRows(snap.Results.Serve))
}

// serveRows renders the serving-layer table rows, empty when the run has
// no serving layer attached.
func serveRows(sv *core.ServeResults) string {
	if sv == nil {
		return ""
	}
	t := &sv.Total
	rows := fmt.Sprintf(`<tr><td>serve policy / discipline</td><td>%s / %s</td></tr>
<tr><td>serve requests</td><td>%d arrived, %d done, %d dropped</td></tr>
<tr><td>serve throughput</td><td>%.3f req/kcycle</td></tr>
<tr><td>serve latency p50/p95/p99</td><td>%d / %d / %d cycles</td></tr>
<tr><td>serve SLA violations</td><td>%.1f%%</td></tr>
`,
		sv.Policy, sv.Discipline,
		t.Arrived, t.Completed, t.Dropped,
		sv.Throughput(),
		t.Latency.Percentile(0.50), t.Latency.Percentile(0.95), t.Latency.Percentile(0.99),
		100*t.ViolationRate())
	// Resilience rows appear only for runs carrying a resilience section,
	// keeping zero-resilience pages unchanged.
	if sv.Resilience != nil {
		rows += fmt.Sprintf(`<tr><td>serve goodput</td><td>%.3f req/kcycle (%d SLA-met)</td></tr>
<tr><td>serve resilience</td><td>%d timeouts, %d retries, %d failed, %d shed</td></tr>
<tr><td>serve hedging / breaker</td><td>%d hedges (%d wins), %d ejections</td></tr>
`,
			sv.GoodputPerKCycle(), t.Goodput(),
			t.Timeouts, t.Retries, t.Failed, t.Shed,
			t.Hedges, t.HedgeWins, sv.Resilience.Ejections)
	}
	return rows
}

// htmlPage self-refreshes so a browser left open follows the run live.
const htmlPage = `<!DOCTYPE html>
<html><head><title>numasim live metrics</title>
<meta http-equiv="refresh" content="1">
<style>body{font-family:monospace;margin:2em}td{padding:0 1em 0 0}</style>
</head><body>
<h2>numasim: %s (%s)</h2>
<table>
<tr><td>cycle</td><td>%d</td></tr>
<tr><td>fast-forwarded cycles</td><td>%d</td></tr>
<tr><td>bus utilization</td><td>%.1f%%</td></tr>
<tr><td>local ring utilization</td><td>%.1f%%</td></tr>
<tr><td>central ring utilization</td><td>%.1f%%</td></tr>
<tr><td>NC hit rate</td><td>%.1f%%</td></tr>
<tr><td>NC migration rate</td><td>%.1f%%</td></tr>
<tr><td>NC caching rate</td><td>%.1f%%</td></tr>
<tr><td>NC combining rate</td><td>%.1f%%</td></tr>
<tr><td>NC requests</td><td>%d</td></tr>
<tr><td>memory transactions</td><td>%d</td></tr>
<tr><td>NAK retries</td><td>%d (%d refs retried)</td></tr>
<tr><td>fault drops / dups</td><td>%d / %d</td></tr>
<tr><td>timeout re-issues</td><td>%d</td></tr>
%s</table>
<p><a href="/metrics.json">metrics.json</a></p>
</body></html>
`
