// Package mcheck is an explicit-state model checker for the NUMAchine
// coherence protocol. It drives the real simulator components — the
// memory directory, network caches, rings and CPUs of internal/memory,
// internal/netcache, internal/ring and internal/proc, assembled by
// internal/core — on a tiny configuration and exhaustively explores every
// nondeterministic choice: reference issue interleavings, NAK retry
// orderings, and fault-injector drop/dup decisions (internal/fault is the
// choice oracle). At every explored state it checks invariants: the
// single-writer property, CheckCoherence's directory/data agreement at
// quiescence, and liveness (every path completes within the retry and
// cycle budgets).
//
// States are canonical encodings of the whole machine (internal/snap):
// exploration is a breadth-first search over choice-sequence prefixes with
// exact-state deduplication — a path is pruned the moment it re-enters a
// state some other interleaving already covered. Because the full
// encoding, not a hash, is the visited-set key, pruning is sound. A
// violation's counterexample is its path's choice sequence, which replays
// deterministically (optionally into a Perfetto trace via internal/trace).
package mcheck

import (
	"fmt"

	"numachine/internal/memory"
	"numachine/internal/trace"
)

// Checker explores one Spec's state space.
type Checker struct {
	spec    Spec
	mut     memory.Mutation
	visited map[string]struct{}

	// StopAtFirst ends exploration at the first violation (mutation
	// testing wants the counterexample, not the census).
	StopAtFirst bool
}

// New validates spec (filling defaults in place) and builds a checker.
func New(spec Spec) (*Checker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Checker{spec: spec, visited: make(map[string]struct{})}, nil
}

// SetMutation injects a deliberate protocol defect into every memory
// module of every explored machine (mutation testing).
func (c *Checker) SetMutation(mu memory.Mutation) { c.mut = mu }

// Result summarizes one exploration.
type Result struct {
	States     int // canonical states in the visited set
	Paths      int // path replays performed
	Terminals  int // paths that ran to completion
	Pruned     int // paths cut at an already-visited state
	MaxChoices int // longest choice sequence observed
	// Complete reports a true fixpoint: every reachable interleaving was
	// explored within the state, depth and violation budgets.
	Complete   bool
	Violations []Violation
}

func (r *Result) String() string {
	s := fmt.Sprintf("states=%d paths=%d terminals=%d pruned=%d maxChoices=%d complete=%v violations=%d",
		r.States, r.Paths, r.Terminals, r.Pruned, r.MaxChoices, r.Complete, len(r.Violations))
	for i := range r.Violations {
		s += "\n  " + r.Violations[i].String()
	}
	return s
}

// maxViolations bounds the collected counterexamples when StopAtFirst is
// off; exploration aborts once it is reached.
const maxViolations = 32

// Run explores the spec's state space to a fixpoint or budget exhaustion.
//
// The worklist holds choice-sequence prefixes. Replaying a prefix answers
// its choices verbatim, then defaults (0) for every further consultation,
// recording all of them; the non-default alternatives of the free
// consultations become new prefixes. Deduplication activates once the
// forced prefix is consumed: at the end of every cycle that consulted the
// oracle, the canonical machine snapshot is looked up in the visited set —
// present means some other interleaving already continued from this exact
// state, so the path is pruned (its recorded choices still spawn their
// alternatives, which branch before the duplicate state).
func (c *Checker) Run() *Result {
	res := &Result{}
	queue := [][]int{nil}
	truncated, aborted := false, false
	for len(queue) > 0 {
		if len(c.visited) >= c.spec.MaxStates {
			aborted = true
			break
		}
		seq := queue[0]
		queue = queue[1:]
		r, vio := c.replay(seq, 0)
		res.Paths++
		if len(r.taken) > res.MaxChoices {
			res.MaxChoices = len(r.taken)
		}
		if r.truncated {
			truncated = true
		}
		if vio != nil {
			res.Violations = append(res.Violations, *vio)
			if c.StopAtFirst || len(res.Violations) >= maxViolations {
				aborted = true
				break
			}
			continue
		}
		if r.terminal {
			res.Terminals++
		}
		if r.pruned {
			res.Pruned++
		}
		for i := len(seq); i < len(r.taken) && i < c.spec.MaxDepth; i++ {
			if r.taken[i].arity < 2 {
				continue
			}
			prefix := make([]int, i+1)
			for j := 0; j < i; j++ {
				prefix[j] = r.taken[j].value
			}
			for alt := 1; alt < r.taken[i].arity; alt++ {
				next := make([]int, i+1)
				copy(next, prefix)
				next[i] = alt
				queue = append(queue, next)
			}
		}
	}
	res.States = len(c.visited)
	res.Complete = len(queue) == 0 && !truncated && !aborted
	return res
}

// replay runs one path to its end: terminal quiescence, a pruned
// duplicate state, a violation, or the cycle budget. Machine.Step runs
// the machine's own invariant loop (the gate audit, and CheckCoherence on
// every entry into quiescence); its panics and the components' (protocol
// assertions like the GI exact-owner check) are converted into violations
// with the path's counterexample attached.
func (c *Checker) replay(seq []int, traceEvents int) (r *run, vio *Violation) {
	r = newRun(c.spec, c.mut, seq, traceEvents)
	defer r.m.Close() // pruned, violating and over-budget paths leave programs parked
	start := r.m.Now()
	step := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%v", p) // every panic string names its source
			}
		}()
		r.m.Step()
		return nil
	}
	for {
		if r.allDone() && r.m.Quiesced() {
			r.terminal = true
			return r, nil
		}
		if r.m.Now()-start >= c.spec.MaxCycles {
			v := r.vio(fmt.Errorf("liveness: path exceeded %d cycles without completing", c.spec.MaxCycles))
			v.Report = r.m.Progress()
			return r, v
		}
		r.cycleHadChoice = false
		if err := step(); err != nil {
			return r, r.vio(err)
		}
		if err := r.alwaysInvariants(); err != nil {
			return r, r.vio(err)
		}
		if r.cycleHadChoice && len(r.taken) >= len(seq) {
			k := r.key()
			if _, seen := c.visited[k]; seen {
				r.pruned = true
				return r, nil
			}
			c.visited[k] = struct{}{}
		}
	}
}

// Replay re-runs one recorded choice sequence — a counterexample — on a
// fresh visited set (no pruning against past exploration) and returns the
// violation it reproduces, nil if the path completes cleanly. With
// traceEvents > 0 the machine records a structured event trace; the
// returned tracer can write a Perfetto file (trace.Tracer.WriteChromeFile).
func (c *Checker) Replay(choices []int, traceEvents int) (*trace.Tracer, *Violation) {
	saved := c.visited
	c.visited = make(map[string]struct{})
	r, vio := c.replay(choices, traceEvents)
	c.visited = saved
	return r.m.Tracer(), vio
}
