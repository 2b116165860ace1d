package fault

import (
	"fmt"
	"sort"

	"numachine/internal/sim"
)

// Injector derives per-component fault state from one seed and spec.
// A nil *Injector (the zero-fault configuration) yields nil *Comps from
// every constructor and a zero FetchTimeout, keeping all hooks inert.
type Injector struct {
	seed uint64
	spec Spec

	// chooser, when non-nil, replaces the PRNG draw behind every Drop/Dup
	// decision: the model checker installs it to turn fault injection into
	// an explored choice oracle (each call becomes a branching point).
	// name identifies the component ("ri/0"), site the decision ("drop").
	chooser func(name, site string) bool
}

// SetChooser installs fn as the decision source for every Drop/Dup draw of
// every component derived from this injector, replacing the PRNG streams.
// The model checker uses this to enumerate fault decisions exhaustively;
// production runs never call it. Components constructed before or after
// the call all consult the injector at decision time.
func (in *Injector) SetChooser(fn func(name, site string) bool) { in.chooser = fn }

// New builds an injector. Callers should skip construction entirely
// (keeping the nil Injector) when spec.Zero() so that fault-free runs
// are byte-identical to builds without the subsystem.
func New(seed uint64, spec Spec) *Injector {
	return &Injector{seed: seed, spec: spec}
}

// Spec returns the injector's schedule (zero Spec on nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{WedgeMemStation: -1}
	}
	return in.spec
}

// FetchTimeout returns the NC fetch re-issue timeout in cycles, or 0
// when fault injection is off (so the timeout path is never armed and
// zero-fault runs keep today's behavior exactly).
func (in *Injector) FetchTimeout() int64 {
	if in == nil {
		return 0
	}
	if in.spec.Timeout > 0 {
		return in.spec.Timeout
	}
	return DefaultTimeout
}

// Mem returns the fault state for one station's memory directory, or
// nil when the spec never affects it.
func (in *Injector) Mem(station int) *Comp {
	if in == nil {
		return nil
	}
	wedge := int64(-1)
	if in.spec.WedgeMemStation == station {
		wedge = in.spec.WedgeMemCycle
	}
	if !in.spec.FreezeMem.active() && wedge < 0 {
		return nil
	}
	return in.newComp(fmt.Sprintf("mem/%d", station), 0, 0, in.spec.FreezeMem, wedge)
}

// NC returns the fault state for one station's network cache.
func (in *Injector) NC(station int) *Comp {
	if in == nil || !in.spec.FreezeNC.active() {
		return nil
	}
	return in.newComp(fmt.Sprintf("nc/%d", station), 0, 0, in.spec.FreezeNC, -1)
}

// RI returns the fault state for one station's ring interface: request
// drops at the injection point and duplication at packetization.
func (in *Injector) RI(station int) *Comp {
	if in == nil || (in.spec.Drop == 0 && in.spec.Dup == 0) {
		return nil
	}
	return in.newComp(fmt.Sprintf("ri/%d", station), in.spec.Drop, in.spec.Dup, Window{}, -1)
}

// IRI returns the fault state for one inter-ring interface: request
// drops at the ascend/descend switch points.
func (in *Injector) IRI(ring int) *Comp {
	if in == nil || in.spec.Drop == 0 {
		return nil
	}
	return in.newComp(fmt.Sprintf("iri/%d", ring), in.spec.Drop, 0, Window{}, -1)
}

// Ring returns the fault state for local ring r, or for the central ring
// when r is -1: degrade windows during which ring-clock edges are lost.
func (in *Injector) Ring(r int) *Comp {
	if in == nil || !in.spec.DegradeRing.active() {
		return nil
	}
	name := "ring/central"
	if r >= 0 {
		name = fmt.Sprintf("ring/local-%d", r)
	}
	return in.newComp(name, 0, 0, in.spec.DegradeRing, -1)
}

func (in *Injector) newComp(name string, drop, dup float64, win Window, wedgeAt int64) *Comp {
	c := &Comp{
		in:      in,
		name:    name,
		drop:    drop,
		dup:     dup,
		win:     win,
		wedgeAt: sim.Never,
	}
	if wedgeAt >= 0 {
		c.wedgeAt = wedgeAt
	}
	// Independent streams per decision site so that, e.g., duplication
	// draws made in the bus phase can never shift the drop draws made in
	// the ring phase of the same component.
	c.dropRNG = *sim.NewRNG(sim.Substream(in.seed, name+"/drop"))
	c.dupRNG = *sim.NewRNG(sim.Substream(in.seed, name+"/dup"))
	c.winRNG = *sim.NewRNG(sim.Substream(in.seed, name+"/win"))
	return c
}

// Comp is one component's private fault state. All methods are safe on
// a nil receiver (and then report "no fault"), so components hold a
// *Comp that stays nil in fault-free runs.
//
// Drop and Dup consume one PRNG draw per call; callers must invoke them
// only at events that occur identically under every cycle loop (a
// packet passing an injection point, a message being packetized), never
// from per-cycle idle ticks. Stalled and NextFree are pure functions of
// the cycle: the window schedule is generated lazily but depends only
// on the seeded winRNG, so every loop sees the same windows.
type Comp struct {
	in   *Injector // decision-source indirection (SetChooser)
	name string

	drop, dup float64
	dropRNG   sim.RNG
	dupRNG    sim.RNG

	win       Window
	winRNG    sim.RNG
	wedgeAt   int64 // sim.Never when the component never wedges
	starts    []int64
	nextStart int64
	winInit   bool
}

// Drop decides whether to lose the current droppable packet.
func (c *Comp) Drop() bool {
	if c == nil || c.drop == 0 {
		return false
	}
	if c.in != nil && c.in.chooser != nil {
		return c.in.chooser(c.name, "drop")
	}
	return c.dropRNG.Float64() < c.drop
}

// Dup decides whether to deliver the current message twice.
func (c *Comp) Dup() bool {
	if c == nil || c.dup == 0 {
		return false
	}
	if c.in != nil && c.in.chooser != nil {
		return c.in.chooser(c.name, "dup")
	}
	return c.dupRNG.Float64() < c.dup
}

// Stalled reports whether the component is down at cycle now.
func (c *Comp) Stalled(now int64) bool {
	if c == nil {
		return false
	}
	if now >= c.wedgeAt {
		return true
	}
	return c.inWindow(now)
}

// NextFree returns the first cycle >= t at which the component is up
// (sim.Never once wedged). Components wrap their NextWork result in it
// so the event-aware loops skip exactly the cycles the naive loop stalls
// through.
func (c *Comp) NextFree(t int64) int64 {
	if c == nil || t >= sim.Never {
		return t
	}
	if t >= c.wedgeAt {
		return sim.Never
	}
	if !c.win.active() {
		return t
	}
	c.ensure(t)
	if i := c.windowAt(t); i >= 0 {
		end := c.starts[i] + c.win.Dur
		if end >= c.wedgeAt {
			return sim.Never
		}
		return end
	}
	return t
}

// DownCycles returns how many cycles in [0, now] the component spent
// frozen or wedged. It is computed in closed form from the schedule so
// reporting never perturbs loop-equivalent state.
func (c *Comp) DownCycles(now int64) int64 {
	if c == nil || now < 0 {
		return 0
	}
	var down int64
	if c.win.active() {
		c.ensure(now)
		for _, s := range c.starts {
			if s > now {
				break
			}
			end := s + c.win.Dur
			if end > now+1 {
				end = now + 1
			}
			// Windows past the wedge point are subsumed by the wedge term.
			if s >= c.wedgeAt {
				break
			}
			if end > c.wedgeAt {
				end = c.wedgeAt
			}
			down += end - s
		}
	}
	if now >= c.wedgeAt {
		down += now + 1 - c.wedgeAt
	}
	return down
}

// Wedged reports whether the component is permanently frozen at now.
func (c *Comp) Wedged(now int64) bool { return c != nil && now >= c.wedgeAt }

// inWindow reports whether now falls inside a down window.
func (c *Comp) inWindow(now int64) bool {
	if !c.win.active() || now < 0 {
		return false
	}
	c.ensure(now)
	return c.windowAt(now) >= 0
}

// windowAt returns the index of the window covering now, or -1. The
// caller must have called ensure(now).
func (c *Comp) windowAt(now int64) int {
	i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > now }) - 1
	if i < 0 || now >= c.starts[i]+c.win.Dur {
		return -1
	}
	return i
}

// ensure extends the window schedule through cycle t. Gaps are drawn
// from the dedicated winRNG in schedule order only, so the schedule is
// the same regardless of which cycle loop asks first.
func (c *Comp) ensure(t int64) {
	if !c.winInit {
		c.winInit = true
		c.nextStart = c.gap()
	}
	for c.nextStart <= t {
		c.starts = append(c.starts, c.nextStart)
		c.nextStart += c.win.Dur + c.gap()
	}
}

// gap draws the next up-time, uniform in [Gap/2, 3*Gap/2).
func (c *Comp) gap() int64 {
	g := c.win.Gap
	return g/2 + int64(c.winRNG.Uint64()%uint64(g))
}
