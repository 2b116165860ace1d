package proc

import (
	"testing"

	"numachine/internal/cache"
	"numachine/internal/msg"
)

// newIdleCPU builds a CPU whose runner never issues anything, so tests can
// set the execution state directly and deliver bus messages by hand.
func newIdleCPU() *CPU {
	c := newCPU(func(ctx *Ctx) {})
	c.st = sThink
	return c
}

// TestEpochBumpCompleteness enumerates every back-end event that can
// change this CPU's hit/miss outcomes or cached values and checks that
// each advances the coherence epoch. The fast path validates its epoch
// snapshot before every resolution, so a path missing from this table —
// and from the bump sites it pins down — would let the front end serve a
// stale hit. The cases mirror the bump sites in cpu.go: fill (including a
// forced eviction), complete via upgrade ack, BusInval, BusIntervention,
// NetInterrupt, and the barrier release Tick performs at the release cycle.
func TestEpochBumpCompleteness(t *testing.T) {
	const line = 0x400
	cases := []struct {
		name string
		prep func(c *CPU)
		act  func(c *CPU)
	}{
		{
			// A fill installs a new line (changing a future probe from miss
			// to hit) and may evict another (hit to miss).
			name: "fill-from-memory-response",
			prep: func(c *CPU) {
				c.st = sWaitMem
				c.cur = Ref{Kind: RefRead, Addr: line}
				c.curLine = line
			},
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: line, Data: 7}, 10)
			},
		},
		{
			// Same fill path with a full cache: the forced (dirty) eviction is
			// covered by the same bump at the top of fill.
			name: "fill-with-eviction",
			prep: func(c *CPU) {
				for i := uint64(0); i < uint64(c.p.L2Lines)+8; i++ {
					c.l2.Insert(0x100000+i*uint64(c.p.LineSize), cache.Dirty, i)
				}
				c.st = sWaitMem
				c.cur = Ref{Kind: RefWrite, Addr: line, Data: 3}
				c.curLine = line
			},
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: line, Data: 7}, 10)
			},
		},
		{
			// An upgrade ack promotes Shared to Dirty and mutates the line
			// value via complete — no fill involved.
			name: "upgrade-ack-complete",
			prep: func(c *CPU) {
				c.l2.Insert(line, cache.Shared, 5)
				c.st = sWaitMem
				c.cur = Ref{Kind: RefWrite, Addr: line, Data: 9}
				c.curLine = line
			},
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.ProcUpgdAck, Line: line}, 10)
			},
		},
		{
			// Invalidation kills a cached copy; the bump is unconditional
			// (the routing mask, not the cache contents, decides delivery).
			name: "bus-inval",
			prep: func(c *CPU) { c.l2.Insert(line, cache.Shared, 5) },
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.BusInval, Line: line}, 10)
			},
		},
		{
			// An exclusive intervention takes our dirty copy away.
			name: "bus-intervention",
			prep: func(c *CPU) { c.l2.Insert(line, cache.Dirty, 5) },
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.BusIntervention, Line: line, Ex: true, SrcMod: 4, AlsoProc: -1}, 10)
			},
		},
		{
			// A kill completion interrupt is a synchronization boundary: the
			// killed line may have been purged from our cache.
			name: "net-interrupt",
			prep: func(c *CPU) {},
			act: func(c *CPU) {
				c.BusDeliver(&msg.Message{Type: msg.NetInterrupt, Line: line, SrcStation: 1}, 10)
			},
		},
		{
			// A barrier release is a synchronization boundary: everything
			// other processors did before the barrier is now visible. The
			// CPU releases itself when it ticks at its release cycle.
			name: "barrier-release",
			prep: func(c *CPU) {
				c.st = sWaitBarrier
				c.FinishBarrier(10)
			},
			act: func(c *CPU) { c.Tick(10) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newIdleCPU()
			tc.prep(c)
			before := c.CoherenceEpoch()
			tc.act(c)
			if after := c.CoherenceEpoch(); after == before {
				t.Errorf("coherence epoch did not advance (still %d)", after)
			}
		})
	}
}

// TestFastWindowValidation exercises the front-end checks directly: a hit
// resolves only inside the published window, a bumped epoch or an
// exceeded horizon forces the slow handshake, and a write hit requires a
// Dirty copy.
func TestFastWindowValidation(t *testing.T) {
	setup := func() (*CPU, *Ctx) {
		c := newIdleCPU()
		c.EnableFastHits()
		c.Horizon = func(now int64) int64 { return now + 100 }
		c.l2.Insert(0x400, cache.Shared, 7)
		c.l2.Insert(0x800, cache.Dirty, 3)
		return c, c.runner.ctx
	}

	t.Run("hit-inside-window", func(t *testing.T) {
		c, ctx := setup()
		c.openFastWindow(10)
		if v, ok := ctx.fastRead(0x400); !ok || v != 7 {
			t.Fatalf("fastRead = %d,%v; want 7,true", v, ok)
		}
		if ctx.pending != int64(c.p.L2HitCycles) {
			t.Errorf("pending = %d, want the L2 hit cost %d", ctx.pending, c.p.L2HitCycles)
		}
		if !ctx.fastWrite(0x800, 11) {
			t.Fatal("fastWrite to a dirty line refused")
		}
		if l := c.l2.Probe(0x800); l.Data != 11 {
			t.Errorf("dirty line value = %d after fastWrite, want 11", l.Data)
		}
	})

	t.Run("miss-falls-through", func(t *testing.T) {
		c, ctx := setup()
		c.openFastWindow(10)
		if _, ok := ctx.fastRead(0xc00); ok {
			t.Error("fastRead resolved a miss")
		}
		if ctx.fastWrite(0x400, 1) {
			t.Error("fastWrite resolved on a Shared copy (needs an upgrade)")
		}
	})

	t.Run("stale-epoch-falls-through", func(t *testing.T) {
		c, ctx := setup()
		c.openFastWindow(10)
		c.bumpEpoch()
		if _, ok := ctx.fastRead(0x400); ok {
			t.Error("fastRead resolved against a stale epoch snapshot")
		}
	})

	t.Run("horizon-exceeded-falls-through", func(t *testing.T) {
		c, ctx := setup()
		c.Horizon = func(now int64) int64 { return now + 5 }
		c.openFastWindow(10)
		ctx.pending = 6 // virtual cycle 16 > horizon 15
		if _, ok := ctx.fastRead(0x400); ok {
			t.Error("fastRead resolved past the delivery horizon")
		}
		ctx.pending = 5 // virtual cycle 15 == horizon: still exact
		if _, ok := ctx.fastRead(0x400); !ok {
			t.Error("fastRead refused a probe exactly at the horizon")
		}
	})

	t.Run("guard-panics-on-early-delivery", func(t *testing.T) {
		c, ctx := setup()
		c.Horizon = func(now int64) int64 { return now + 100 }
		c.openFastWindow(10)
		ctx.pending = 50
		if _, ok := ctx.fastRead(0x400); !ok {
			t.Fatal("fastRead refused inside the window")
		}
		c.adoptFastGuard()
		defer func() {
			if recover() == nil {
				t.Error("no panic on a delivery before the last fast probe")
			}
		}()
		c.BusDeliver(&msg.Message{Type: msg.BusInval, Line: 0x400}, 20)
	})
}
