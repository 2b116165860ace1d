package mcheck

import (
	"fmt"
	"strings"

	"numachine/internal/cache"
	"numachine/internal/core"
	"numachine/internal/memory"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/snap"
	"numachine/internal/topo"
)

// choicePoint records one oracle consultation: how many alternatives
// existed and which was taken.
type choicePoint struct {
	arity int
	value int
}

// Violation is one invariant failure together with its replayable
// counterexample (the full choice sequence of the violating path).
type Violation struct {
	Err     error
	Choices []int
	Cycle   int64
	// Report is the machine's stuck-transaction report for a liveness
	// violation (the one the watchdog attaches to its aborts), else nil.
	Report *core.ProgressReport
}

// String renders the violation on one line, followed by its
// stuck-transaction report, indented, when it has one.
func (v *Violation) String() string {
	s := fmt.Sprintf("cycle %d: %v (counterexample %s)", v.Cycle, v.Err, FormatChoices(v.Choices))
	if v.Report != nil {
		s += "\n    " + strings.ReplaceAll(strings.TrimRight(v.Report.String(), "\n"), "\n", "\n    ")
	}
	return s
}

// run replays one path: a fresh machine driven from reset, with every
// nondeterministic decision routed through choose. The forced prefix seq
// is answered verbatim; free consultations past it answer 0 and are
// recorded so the explorer can schedule the alternatives.
//
// A fresh machine per path is the restore mechanism: live snapshot/restore
// is impossible because workload coroutines hold stack state, but replaying
// a choice prefix from reset reaches the identical machine state — the
// simulator is deterministic given the oracle's answers.
type run struct {
	spec Spec
	seq  []int

	m     *core.Machine
	lines []uint64
	pos   []int // per-CPU driver program position (op index in flight)

	taken          []choicePoint
	faults         int
	cycleHadChoice bool
	truncated      bool

	terminal bool
	pruned   bool
}

// newRun builds the machine for one path replay. The replay advances it
// through the production step (Machine.Step: the gated cycle, inline
// executor, quiescence fast-forward included) with the gate audit armed, so
// every explored path also checks the poll caches against lost influence
// marks. A jump crosses only cycles on which nothing ticks, so no choice is
// consulted and no state changes inside it. The configuration is deliberately constrained so
// every source of nondeterminism is either removed or routed through the
// choice oracle: no front-end fast path, fixed NAK retry delay
// (RetryBackoff off) overridden by the retry-choice hook, and — when fault
// choices are on — the injector's PRNG replaced by the oracle via
// SetChooser.
func newRun(spec Spec, mut memory.Mutation, seq []int, traceEvents int) *run {
	p := sim.DefaultParams()
	p.L2Lines = spec.L2Lines
	p.NCLines = spec.NCLines
	p.RetryBackoff = false
	p.DeadlockCycles = 0
	p.StarvationWindows = 0
	cfg := core.Config{
		Geom:   topo.Geometry{ProcsPerStation: spec.Procs, StationsPerRing: spec.Stations, Rings: 1},
		Params: p,

		CheckInvariants: true,
	}
	if spec.FaultChoices {
		// The probabilities only arm the Drop/Dup sites; the oracle
		// replaces the draws. The short timeout keeps the NC's lost-request
		// recovery within the per-path cycle budget.
		cfg.FaultSpec = "drop=0.5,dup=0.5,timeout=400"
		cfg.FaultSeed = 1
	}
	m, err := core.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("mcheck: internal: machine build failed for validated spec: %v", err))
	}
	nprocs := spec.Stations * spec.Procs
	r := &run{spec: spec, seq: seq, m: m, pos: make([]int, nprocs)}
	base := m.AllocLines(spec.Lines)
	for k := 0; k < spec.Lines; k++ {
		r.lines = append(r.lines, base+uint64(k*p.LineSize))
	}
	progs := make([]proc.Program, nprocs)
	for i := range progs {
		i := i
		ops, err := ParseOps(spec.Ops[i], spec.Lines)
		if err != nil {
			panic(fmt.Sprintf("mcheck: internal: validated op string failed to parse: %v", err))
		}
		progs[i] = func(c *proc.Ctx) {
			for j, op := range ops {
				r.pos[i] = j
				if len(spec.Delays) > 1 {
					if d := spec.Delays[r.choose(len(spec.Delays))]; d > 0 {
						c.Compute(d)
					}
				} else if d := spec.Delays[0]; d > 0 {
					c.Compute(d)
				}
				switch op.Kind {
				case 'w':
					// Distinct value per (processor, op) so data-agreement
					// checks can tell every write apart.
					c.Write(r.lines[op.Line], uint64(0x100+i*16+j))
				case 'r':
					c.Read(r.lines[op.Line])
				}
			}
			r.pos[i] = len(ops)
		}
	}
	m.Load(progs)
	for _, mem := range m.Mems {
		mem.Mut = mut
	}
	for _, c := range m.CPUs {
		c.Backoff.Choice = r.retryChoice
	}
	for _, nc := range m.NCs {
		nc.Backoff.Choice = r.retryChoice
	}
	if inj := m.Injector(); inj != nil {
		inj.SetChooser(r.faultChoice)
	}
	if traceEvents > 0 {
		m.EnableTrace(traceEvents)
	}
	return r
}

// choose is the oracle: consultation i answers the forced prefix when
// i < len(seq), else the default alternative 0. Every consultation is
// recorded; the explorer schedules the non-default alternatives of free
// consultations. Choice sites fire at deterministic machine events (a
// driver issuing a reference, a NAK arming a retry, a packet hitting a
// fault site), so consultation i means the same decision on every path
// sharing the first i choices.
func (r *run) choose(arity int) int {
	i := len(r.taken)
	v := 0
	if i < len(r.seq) {
		v = r.seq[i]
		if v >= arity {
			panic(fmt.Sprintf("mcheck: internal: forced choice %d = %d out of range (arity %d)", i, v, arity))
		}
	}
	if i >= r.spec.MaxDepth {
		r.truncated = true
	}
	r.taken = append(r.taken, choicePoint{arity: arity, value: v})
	r.cycleHadChoice = true
	return v
}

// retryChoice is the CPU and NC back-off hook (sim.Backoff.Choice): the
// delta menu turns every NAK retry into a choice point (retry orderings).
func (r *run) retryChoice(_ int, base int64) int64 {
	if len(r.spec.RetryDeltas) <= 1 {
		return base + r.spec.RetryDeltas[0]
	}
	return base + r.spec.RetryDeltas[r.choose(len(r.spec.RetryDeltas))]
}

// faultChoice implements the injector's decision source: each armed
// drop/dup site asks the oracle, bounded by the per-path fault budget.
func (r *run) faultChoice(_, _ string) bool {
	if r.faults >= r.spec.MaxFaults {
		return false
	}
	if r.choose(2) == 1 {
		r.faults++
		return true
	}
	return false
}

func (r *run) allDone() bool {
	for _, c := range r.m.CPUs {
		if !c.Done() {
			return false
		}
	}
	return true
}

// choices returns the values taken so far — the path's counterexample.
func (r *run) choices() []int {
	out := make([]int, len(r.taken))
	for i, c := range r.taken {
		out[i] = c.value
	}
	return out
}

func (r *run) vio(err error) *Violation {
	return &Violation{Err: err, Choices: r.choices(), Cycle: r.m.Now()}
}

// key canonically encodes the full machine state plus the checker-side
// state that shapes future behavior: the driver program positions (the
// workload coroutines' only hidden state) and the consumed fault budget.
func (r *run) key() string {
	e := snap.New(r.m.Now())
	for _, p := range r.pos {
		e.Int(p)
	}
	e.Int(r.faults)
	r.m.EncodeState(e)
	return e.String()
}

// alwaysInvariants hold in every reachable state, quiescent or not: the
// single-writer property (at most one dirty secondary-cache copy of a line
// machine-wide) and the retry budget (liveness: no reference absorbs
// unbounded consecutive NAKs).
func (r *run) alwaysInvariants() error {
	for _, line := range r.lines {
		dirty := 0
		var holders []string
		for _, c := range r.m.CPUs {
			if l := c.L2().Probe(line); l != nil && l.State == cache.Dirty {
				dirty++
				holders = append(holders, fmt.Sprintf("cpu%d", c.GlobalID))
			}
		}
		if dirty > 1 {
			return fmt.Errorf("single-writer violated: line %#x dirty in %d caches (%s)",
				line, dirty, strings.Join(holders, " "))
		}
	}
	for _, c := range r.m.CPUs {
		if c.Retries() > r.spec.MaxRetries {
			return fmt.Errorf("liveness: cpu%d exceeded the retry budget (%d consecutive NAKs > %d)",
				c.GlobalID, c.Retries(), r.spec.MaxRetries)
		}
	}
	return nil
}
