package fault

import (
	"strings"
	"testing"

	"numachine/internal/sim"
)

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("")
	if err != nil || !sp.Zero() {
		t.Fatalf("empty spec: %+v, err %v", sp, err)
	}

	sp, err = ParseSpec("drop=0.02, dup=0.01,freeze-mem=5000:200,freeze-nc=7000:300,degrade-ring=9000:50,wedge-mem=1:12345,timeout=2500")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if sp.Drop != 0.02 || sp.Dup != 0.01 {
		t.Fatalf("probabilities: %+v", sp)
	}
	if sp.FreezeMem != (Window{5000, 200}) || sp.FreezeNC != (Window{7000, 300}) || sp.DegradeRing != (Window{9000, 50}) {
		t.Fatalf("windows: %+v", sp)
	}
	if sp.WedgeMemStation != 1 || sp.WedgeMemCycle != 12345 || sp.Timeout != 2500 {
		t.Fatalf("wedge/timeout: %+v", sp)
	}
	if sp.Zero() {
		t.Fatalf("spec should be non-zero: %+v", sp)
	}

	for _, bad := range []string{
		"drop", "drop=2", "drop=-0.5", "drop=x", "dup=NaN",
		"freeze-mem=100", "freeze-mem=0:10", "freeze-mem=10:0", "freeze-mem=a:b",
		"wedge-mem=5", "wedge-mem=-1:0", "wedge-mem=0:-3", "timeout=0", "timeout=-4",
		"nope=1", "=-", "drop=0.5,drop=0.1", "timeout=5,timeout=9",
	} {
		sp, err := ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q): expected error", bad)
		}
		if !sp.Zero() {
			t.Errorf("ParseSpec(%q): error spec not zero: %+v", bad, sp)
		}
	}
}

func TestNilInjectorInert(t *testing.T) {
	var in *Injector
	if in.FetchTimeout() != 0 {
		t.Fatal("nil injector must disable the fetch timeout")
	}
	comps := []*Comp{in.Mem(0), in.NC(0), in.RI(0), in.IRI(0), in.Ring(0)}
	for i, c := range comps {
		if c != nil {
			t.Fatalf("comp %d non-nil from nil injector", i)
		}
	}
	var c *Comp
	if c.Drop() || c.Dup() || c.Stalled(100) || c.Wedged(100) || c.DownCycles(100) != 0 {
		t.Fatal("nil comp must report no faults")
	}
	if c.NextFree(42) != 42 || c.NextFree(sim.Never) != sim.Never {
		t.Fatal("nil comp NextFree must be identity")
	}
}

func TestInjectorGating(t *testing.T) {
	in := New(1, Spec{Drop: 0.1, WedgeMemStation: -1})
	if in.Mem(0) != nil || in.NC(0) != nil || in.Ring(-1) != nil {
		t.Fatal("drop-only spec must not build freeze comps")
	}
	if in.RI(0) == nil || in.IRI(0) == nil {
		t.Fatal("drop-only spec must build RI and IRI comps")
	}
	in = New(1, Spec{FreezeMem: Window{100, 10}, WedgeMemStation: 2})
	if in.Mem(0) == nil || in.Mem(2) == nil || in.RI(0) != nil {
		t.Fatal("freeze spec gating wrong")
	}
	if !in.Mem(2).Wedged(0) {
		t.Fatal("wedge at cycle 0 must wedge immediately")
	}
	if in.Mem(0).Wedged(1 << 40) {
		t.Fatal("non-wedged station reported wedged")
	}
}

// TestWindowScheduleDeterminism checks that the window schedule is a
// pure function of (seed, name), independent of query order, and that
// Stalled/NextFree/DownCycles agree with a naive cycle-by-cycle scan.
func TestWindowScheduleDeterminism(t *testing.T) {
	mk := func() *Comp { return New(7, Spec{FreezeMem: Window{500, 80}, WedgeMemStation: -1}).Mem(3) }

	a, b := mk(), mk()
	const limit = 100_000
	// a is queried cycle by cycle; b jumps straight to the end first.
	bDown := b.DownCycles(limit)
	var aDown int64
	for now := int64(0); now <= limit; now++ {
		stalled := a.Stalled(now)
		if stalled {
			aDown++
		}
		if got := b.Stalled(now); got != stalled {
			t.Fatalf("cycle %d: Stalled diverges with query order: %v vs %v", now, stalled, got)
		}
		free := a.NextFree(now)
		if stalled {
			if free <= now {
				t.Fatalf("cycle %d: stalled but NextFree = %d", now, free)
			}
			if a.Stalled(free) || !a.Stalled(free-1) {
				t.Fatalf("cycle %d: NextFree %d is not the first free cycle", now, free)
			}
		} else if free != now {
			t.Fatalf("cycle %d: free but NextFree = %d", now, free)
		}
	}
	if aDown == 0 {
		t.Fatal("schedule produced no down cycles")
	}
	if aDown != bDown || a.DownCycles(limit) != aDown {
		t.Fatalf("DownCycles mismatch: scan %d, closed form %d/%d", aDown, a.DownCycles(limit), bDown)
	}
}

func TestWedge(t *testing.T) {
	c := New(3, Spec{WedgeMemStation: 0, WedgeMemCycle: 1000}).Mem(0)
	if c.Stalled(999) || !c.Stalled(1000) || !c.Stalled(1<<50) {
		t.Fatal("wedge boundary wrong")
	}
	if c.NextFree(500) != 500 {
		t.Fatal("pre-wedge NextFree wrong")
	}
	if c.NextFree(1000) != sim.Never || c.NextFree(1<<50) != sim.Never {
		t.Fatal("post-wedge NextFree must be Never")
	}
	if got := c.DownCycles(1004); got != 5 {
		t.Fatalf("DownCycles = %d, want 5", got)
	}
}

// TestDrawDeterminism checks that drop/dup draw sequences depend only on
// (seed, component name) and that the two sites use independent streams.
func TestDrawDeterminism(t *testing.T) {
	seq := func(c *Comp, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if c.Drop() {
				sb.WriteByte('D')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	mk := func(seed uint64) *Comp { return New(seed, Spec{Drop: 0.3, Dup: 0.3, WedgeMemStation: -1}).RI(1) }

	a, b := mk(9), mk(9)
	// Interleave dup draws on b only: drop sequence must not shift.
	var sb strings.Builder
	for i := 0; i < 4096; i++ {
		b.Dup()
		if b.Drop() {
			sb.WriteByte('D')
		} else {
			sb.WriteByte('.')
		}
	}
	if got, want := sb.String(), seq(a, 4096); got != want {
		t.Fatal("dup draws perturbed the drop stream")
	}
	if !strings.Contains(seq(mk(9), 4096), "D") {
		t.Fatal("p=0.3 produced no drops in 4096 draws")
	}
	if seq(mk(9), 512) == seq(mk(10), 512) {
		t.Fatal("different seeds produced identical drop streams")
	}
	other := New(9, Spec{Drop: 0.3, WedgeMemStation: -1}).RI(2)
	if seq(mk(9), 512) == seq(other, 512) {
		t.Fatal("different components produced identical drop streams")
	}
}

// TestEmptySpecAllocatesNothing: every core.New parses its fault spec,
// and the fault-free one, the empty spec, must add nothing to the
// machine's construction cost.
func TestEmptySpecAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseSpec(""); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ParseSpec(\"\") allocates %.1f objects, want 0", n)
	}
}

func FuzzParseSpec(f *testing.F) {
	f.Add("")
	f.Add("drop=0.02,dup=0.01")
	f.Add("freeze-mem=5000:200,timeout=2500")
	f.Add("wedge-mem=0:0,degrade-ring=1:1")
	f.Add("drop=1e-3,drop=0.5")
	f.Add(",,,")
	f.Add("drop=0.1,unknown=2")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			if !sp.Zero() {
				t.Fatalf("error return with non-zero spec: %+v", sp)
			}
			return
		}
		// Every accepted spec must be safe to build an injector from and
		// to exercise: probabilities in range, windows usable.
		if sp.Drop < 0 || sp.Drop > 1 || sp.Dup < 0 || sp.Dup > 1 {
			t.Fatalf("accepted out-of-range probability: %+v", sp)
		}
		for _, w := range []Window{sp.FreezeMem, sp.FreezeNC, sp.DegradeRing} {
			if w.Dur < 0 || w.Gap < 0 || (w.active() && w.Gap <= 0) {
				t.Fatalf("accepted unusable window: %+v", sp)
			}
		}
		if sp.Timeout < 0 || sp.WedgeMemCycle < 0 {
			t.Fatalf("accepted negative cycle value: %+v", sp)
		}
		if !sp.Zero() {
			in := New(12345, sp)
			c := in.Mem(maxInt(sp.WedgeMemStation, 0))
			c.Stalled(10_000)
			c.NextFree(10_000)
			_ = c.DownCycles(10_000)
			in.RI(0).Drop()
			in.RI(0).Dup()
			in.Ring(0).Stalled(10_000)
		}
	})
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
