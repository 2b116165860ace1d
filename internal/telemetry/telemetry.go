// Package telemetry serves live simulation metrics over HTTP. A Server
// holds the most recently published Snapshot behind an atomic pointer;
// the machine's sampler (core.Machine.SetSampler) publishes a fresh
// snapshot every N cycles from a serial point of the run loop, and HTTP
// handlers read whatever snapshot is current without ever touching the
// machine — the simulation never blocks on a slow client.
//
// Routes: /metrics.json returns the snapshot as JSON; / returns a small
// self-refreshing HTML page of the same statistics block numasim prints.
package telemetry

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"strings"
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
	// Faults labels the run's fault schedule (core.Config.FaultLabel);
	// empty for a fault-free run.
	Faults string `json:"faults,omitempty"`
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
		Faults:        m.Cfg.FaultLabel(),
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
		CurrentPhases:     currentPhases(m),
	}
}

// currentPhases reads every processor's phase register, indexed by
// processor.
func currentPhases(m *core.Machine) []uint8 {
	phases := make([]uint8, len(m.CPUs))
	for i, c := range m.CPUs {
		phases[i] = c.Phase()
	}
	return phases
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
	var b strings.Builder
	fmt.Fprintf(&b, "cycle            %d (%d fast-forwarded)\n", snap.Cycle, snap.FastForwarded)
	snap.Results.WriteReport(&b, snap.Faults)
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, htmlPage, html.EscapeString(snap.Workload), state, html.EscapeString(b.String()))
}

// htmlPage self-refreshes so a browser left open follows the run live. Its
// body is the statistics block numasim prints (core.Results.WriteReport).
const htmlPage = `<!DOCTYPE html>
<html><head><title>numasim live metrics</title>
<meta http-equiv="refresh" content="1">
<style>body{font-family:monospace;margin:2em}</style>
</head><body>
<h2>numasim: %s (%s)</h2>
<pre>
%s</pre>
<p><a href="/metrics.json">metrics.json</a></p>
</body></html>
`
