package core

import (
	"testing"

	"numachine/internal/msg"
	"numachine/internal/proc"
	"numachine/internal/trace"
)

// killOnLockedLine runs two kills, each aimed at a line its home holds
// locked for an intervention, on two stations of two processors:
//
//	phase 1: cpu0 owns line a (home 0) dirty; cpu2 reads it remotely, so
//	         home 0 locks a and intervenes on cpu0; cpu1, a local killer,
//	         kills a after localDelay cycles.
//	phase 2: cpu3 owns line b (home 1) dirty; cpu2 reads it locally, so
//	         home 1 locks b and intervenes on cpu3; cpu0, a remote killer,
//	         kills b after remoteDelay cycles.
//
// It returns the traced machine after Run.
func killOnLockedLine(t *testing.T, localDelay, remoteDelay int64) *Machine {
	t.Helper()
	cfg := tinyConfig(2, 2, 1)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := m.AllocAt(0, cfg.Params.PageSize)
	b := m.AllocAt(1, cfg.Params.PageSize)
	progs := []proc.Program{
		func(c *proc.Ctx) {
			c.Write(a, 1)
			c.Barrier()
			c.Barrier()
			c.Compute(remoteDelay)
			c.Kill(b)
			c.Barrier()
		},
		func(c *proc.Ctx) {
			c.Barrier()
			c.Compute(localDelay)
			c.Kill(a)
			c.Barrier()
			c.Barrier()
		},
		func(c *proc.Ctx) {
			c.Barrier()
			c.Read(a)
			c.Barrier()
			c.Read(b)
			c.Barrier()
		},
		func(c *proc.Ctx) {
			c.Write(b, 2)
			c.Barrier()
			c.Barrier()
			c.Barrier()
		},
	}
	m.EnableTrace(1 << 14)
	m.Load(progs)
	m.Run()
	return m
}

// TestKillNAKedOnLockedLine drives the NAK'ed-kill path end to end: a kill
// that meets a locked home line is refused, the NAK reaches the killer
// (directly from a local home; from a remote one as a network NAK its NC
// forwards) and the killer re-issues the kill until it completes. Each
// delay sits inside its kill's window, found by sweeping the delay in
// steps of 2 from 0 to 198: the local kill is NAK'ed for delays 54..100,
// the remote one for 0..34.
func TestKillNAKedOnLockedLine(t *testing.T) {
	m := killOnLockedLine(t, 76, 16)
	naks := make(map[int32]int) // trace NAK events of a KillReq, by component rank
	for _, e := range m.Tracer().Events() {
		if e.Kind == trace.KindNAK && e.A == int32(msg.KillReq) {
			naks[e.Comp]++
		}
	}
	for _, id := range []int{1, 0} { // the local killer, then the remote one
		c := m.CPUs[id]
		if !c.Done() {
			t.Errorf("cpu%d: kill never completed (state %s)", id, c.StateName())
		}
		if c.Stats.NAKRetries < 1 {
			t.Errorf("cpu%d: %d NAK retries, want the kill NAK'ed at least once", id, c.Stats.NAKRetries)
		}
		if naks[int32(id)] < 1 { // CPUs hold the first trace ranks, in id order
			t.Errorf("cpu%d: no trace NAK event of a KillReq (kill NAKs by rank: %v)", id, naks)
		}
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
}
