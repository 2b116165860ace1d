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

// TestFastWindowValidation exercises the front-end checks directly: a hit
// resolves only inside the published window, an exceeded horizon forces
// the slow handshake, and a write hit requires a Dirty copy.
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
