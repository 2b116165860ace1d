package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// Pass plan of a run. Every workload first runs one untimed pass that
// warms the Go runtime (heap growth, goroutine stacks, page faults) and
// records the digests later passes are held to.
const (
	minTimedPasses = 3 // with -seconds: never fewer, however slow a pass is
	tracedPasses   = 2 // at least; more until tracedSeconds have been profiled
	// tracedSeconds is how long the traced passes run at least: enough
	// for minProfileSamples and for a supported p99 of the sampler's
	// intervals on every workload (not applied to -smoke runs).
	tracedSeconds = 5.0
)

// options are the flags of `bench run`.
type options struct {
	Workload string
	Seed     uint64
	Seconds  int  // 0: the workload's fixed pass count
	Trace    bool // also make the traced run
	TraceDir string
	Smoke    bool
}

// simSummary identifies one simulation's simulated-time outcome.
type simSummary struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
	Cycles int64  `json:"cycles"`
	Refs   int64  `json:"refs"`
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name      string          `json:"name"`
	Passes    int             `json:"passes"`     // timed passes behind the medians
	MeasuredS float64         `json:"measured_s"` // wall clock of the timed passes
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"` // simulations run, all passes
	Failed    int64           `json:"failed"`    // of those, failed a check
	Failures  []string        `json:"failures,omitempty"`
	SimDigest string          `json:"sim_digest"`
	Sims      []simSummary    `json:"sims"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer"`
	Notes     []string        `json:"notes,omitempty"`
}

// guard holds every later pass to the digests of the first: tracing,
// the sampler and the pass number are observation only, so any
// difference is a nondeterministic simulator and fails the simulation.
type guard struct {
	want     []string // digest per simulation index, from the first pass
	failures []string
	ran      int64
	failed   int64
}

func (g *guard) check(label string, p *pass) {
	first := g.want == nil
	if first {
		g.want = make([]string, len(p.Sims))
	}
	for i := range p.Sims {
		s := &p.Sims[i]
		if s.Err == "" && first {
			g.want[i] = s.Digest
		}
		if s.Err == "" && s.Digest != g.want[i] {
			s.Err = fmt.Sprintf("sim_digest %s differs from the first pass's %s", s.Digest, g.want[i])
		}
		// The loops are bit-identical by contract: a scheduled reference
		// must reproduce the parallel simulation before it.
		if s.Err == "" && s.Spec.Reference && i > 0 && s.Digest != p.Sims[i-1].Digest && p.Sims[i-1].Err == "" {
			s.Err = fmt.Sprintf("scheduled loop digest %s differs from the parallel loop's %s", s.Digest, p.Sims[i-1].Digest)
		}
		g.ran++
		if s.Err != "" {
			g.failed++
			g.failures = append(g.failures, fmt.Sprintf("%s, simulation %q: %s", label, s.Spec.ID, s.Err))
		}
	}
}

// runPass runs the workload's simulations once, in order.
func runPass(env *runEnv, w *workload, parent int, label string) pass {
	id := env.tr.begin(label, parent)
	start := time.Now()
	p := pass{Sims: make([]simResult, len(w.Sims))}
	for i := range w.Sims {
		p.Sims[i] = runSim(env, &w.Sims[i], id)
	}
	p.WallS = time.Since(start).Seconds()
	env.tr.end(id)
	return p
}

// runWorkload measures one workload: warm-up pass, timed passes, and,
// when asked, the traced run.
func runWorkload(w *workload, opt options, gomaxprocs int, spans *tracer) (workloadResult, error) {
	env := &runEnv{seed: opt.Seed, gomaxprocs: gomaxprocs}
	g := &guard{}
	warm := runPass(env, w, 0, "warm-up")
	g.check("warm-up pass", &warm)
	all := []pass{warm}

	var timed []pass
	var measured float64
	for {
		n := len(timed)
		if opt.Seconds == 0 && n >= w.Passes {
			break
		}
		if opt.Seconds > 0 && n >= minTimedPasses && measured >= float64(opt.Seconds) {
			break
		}
		p := runPass(env, w, 0, "pass")
		g.check(fmt.Sprintf("pass %d", n+1), &p)
		measured += p.WallS
		timed = append(timed, p)
	}
	all = append(all, timed...)

	res := workloadResult{Name: w.Name, Passes: len(timed), MeasuredS: measured}
	var tr *traced
	if opt.Trace {
		var err error
		tr, err = runTraced(w, opt, gomaxprocs, g, spans)
		if err != nil {
			return res, err
		}
		all = append(all, tr.Passes...)
		all = append(all, *tr.MultiP)
		if tr.ProfileNote != "" {
			res.Notes = append(res.Notes, tr.ProfileNote)
		}
	}

	res.EndToEnd = endToEnd(timed, all)
	res.PerLayer = perLayer(timed, tr, gomaxprocs)
	res.Attempted, res.Failed, res.Failures = g.ran, g.failed, g.failures
	res.Correct = g.failed == 0
	var digests []string
	for i := range timed[0].Sims {
		s := &timed[0].Sims[i]
		res.Sims = append(res.Sims, simSummary{ID: s.Spec.ID, Digest: g.want[i], Cycles: s.Cycles, Refs: s.Refs})
		digests = append(digests, g.want[i])
	}
	res.SimDigest = digest(digests)
	return res, nil
}

// runTraced repeats the workload with spans, the interval sampler and a
// CPU profile on, then once more untraced with every simulation at
// host.gomaxprocs. Its passes are held to the same digests as the
// untraced ones.
func runTraced(w *workload, opt options, gomaxprocs int, g *guard, spans *tracer) (*traced, error) {
	tr := &traced{}
	env := &runEnv{seed: opt.Seed, gomaxprocs: gomaxprocs, tr: spans}
	profile := filepath.Join(opt.TraceDir, w.Name+".pprof")
	stop, err := startProfile(profile)
	if err != nil {
		return nil, err
	}
	root := env.tr.begin("workload:"+w.Name, 0)
	var profiled float64
	for i := 0; i < tracedPasses || (!opt.Smoke && profiled < tracedSeconds); i++ {
		label := fmt.Sprintf("traced pass %d", i+1)
		p := runPass(env, w, root, label)
		g.check(label, &p)
		profiled += p.WallS
		tr.Passes = append(tr.Passes, p)
	}
	env.tr.end(root)
	if err := stop(); err != nil {
		return nil, err
	}
	shares, err := profileShares(profile)
	switch {
	case err != nil:
		tr.ProfileNote = "cpu shares unavailable: " + err.Error()
	case shares.Samples < minProfileSamples:
		tr.ProfileNote = fmt.Sprintf("cpu shares: insufficient samples (%d < %d)", shares.Samples, minProfileSamples)
	}
	tr.Shares = shares

	multi := runPass(&runEnv{seed: opt.Seed, gomaxprocs: gomaxprocs, multiP: true}, w, 0, "multi-P pass")
	g.check("multi-P pass", &multi)
	tr.MultiP = &multi
	return tr, nil
}
