package proc

import (
	"testing"
	"unsafe"

	"numachine/internal/cache"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

func testGeom() topo.Geometry {
	return topo.Geometry{ProcsPerStation: 4, StationsPerRing: 4, Rings: 1}
}

// runCPU ticks the CPU and collects its outgoing messages.
func runCPU(c *CPU, from, cycles int64) (int64, []*msg.Message) {
	var out []*msg.Message
	for i := int64(0); i < cycles; i++ {
		c.Tick(from)
		for {
			m, ok := c.BusOut().Pop()
			if !ok {
				break
			}
			out = append(out, m)
		}
		from++
	}
	return from, out
}

func newCPU(prog Program) *CPU {
	g := testGeom()
	p := sim.DefaultParams()
	p.L2Lines = 64
	c := new(CPU)
	c.Init(g, &p, 0, NewRunner(0, 1, prog), 16)
	c.Msgs = new(msg.Pool[msg.Message])
	c.HomeOf = func(line uint64) int { return 0 }
	return c
}

func TestRunnerHandshake(t *testing.T) {
	r := NewRunner(0, 1, func(c *Ctx) {
		if v := c.Read(0x40); v != 7 {
			t.Errorf("read resumed with %d, want 7", v)
		}
		c.Write(0x80, 1)
	})
	ref := r.Next(0)
	if ref.Kind != RefRead || ref.Addr != 0x40 {
		t.Fatalf("first ref %+v", ref)
	}
	ref = r.Next(7)
	if ref.Kind != RefWrite || ref.Addr != 0x80 {
		t.Fatalf("second ref %+v", ref)
	}
	ref = r.Next(0)
	if ref.Kind != RefDone || !r.Done() {
		t.Fatalf("final ref %+v done=%v", ref, r.Done())
	}
}

// TestProgramNeverRunsAheadOfItsCPU: a handshake carries one reference, so
// a result-free reference parks the program like any other and nothing
// after it runs until the CPU has executed it. The model checker's state
// key (see snapshot.go) and the serving layer's mailboxes rely on this.
func TestProgramNeverRunsAheadOfItsCPU(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind RefKind
		op   func(c *Ctx)
	}{
		{"write", RefWrite, func(c *Ctx) { c.Write(0x80, 1) }},
		{"prefetch", RefPrefetch, func(c *Ctx) { c.Prefetch(0x80) }},
		{"phase", RefPhase, func(c *Ctx) { c.SetPhase(3) }},
	} {
		flag := false
		r := NewRunner(0, 1, func(c *Ctx) {
			tc.op(c)
			flag = true
			c.Read(0x40)
		})
		if ref := r.Next(0); ref.Kind != tc.kind {
			t.Fatalf("%s: first ref %+v", tc.name, ref)
		}
		if flag {
			t.Errorf("%s: the program ran past a reference its CPU has not executed", tc.name)
		}
		if ref := r.Next(0); ref.Kind != RefRead || !flag {
			t.Errorf("%s: second ref %+v, flag %v", tc.name, ref, flag)
		}
		r.Stop()
	}
}

func TestMissIssuesLocalRead(t *testing.T) {
	c := newCPU(func(ctx *Ctx) { ctx.Read(0x1000) })
	now, out := runCPU(c, 0, 10)
	if len(out) != 1 || out[0].Type != msg.LocalRead {
		t.Fatalf("issued %v, want one LocalRead", out)
	}
	if out[0].DstMod != testGeom().ModMem() {
		t.Errorf("local line sent to module %d, want memory", out[0].DstMod)
	}
	// Response fills Shared and completes the program.
	c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: 0x1000, Data: 5}, now)
	now, _ = runCPU(c, now, 60)
	if !c.Done() {
		t.Fatal("program did not complete after the fill")
	}
	if l := c.L2().Probe(0x1000); l == nil || l.State != cache.Shared || l.Data != 5 {
		t.Fatalf("L2 after read fill: %+v", l)
	}
}

func TestRemoteLineGoesToNC(t *testing.T) {
	c := newCPU(func(ctx *Ctx) { ctx.Read(0x1000) })
	c.HomeOf = func(line uint64) int { return 3 }
	_, out := runCPU(c, 0, 10)
	if out[0].DstMod != testGeom().ModNC() {
		t.Errorf("remote line sent to module %d, want NC", out[0].DstMod)
	}
	if out[0].Home != 3 {
		t.Errorf("home station %d, want 3", out[0].Home)
	}
}

func TestWriteMissThenHit(t *testing.T) {
	c := newCPU(func(ctx *Ctx) {
		ctx.Write(0x1000, 11)
		ctx.Write(0x1000, 12) // second write hits the dirty line
	})
	now, out := runCPU(c, 0, 10)
	if len(out) != 1 || out[0].Type != msg.LocalReadEx {
		t.Fatalf("issued %v, want LocalReadEx", out)
	}
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: 0x1000, Data: 0}, now)
	now, out = runCPU(c, now, 80)
	if len(out) != 0 {
		t.Fatalf("second write issued %v, want nothing (dirty hit)", out)
	}
	if !c.Done() {
		t.Fatal("program incomplete")
	}
	if l := c.L2().Probe(0x1000); l.State != cache.Dirty || l.Data != 12 {
		t.Fatalf("L2 %+v, want dirty 12", l)
	}
}

func TestSharedWriteUpgrades(t *testing.T) {
	c := newCPU(func(ctx *Ctx) {
		ctx.Read(0x1000)
		ctx.Write(0x1000, 9)
	})
	now, out := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: 0x1000, Data: 1}, now)
	now, out = runCPU(c, now, 60)
	if len(out) != 1 || out[0].Type != msg.LocalUpgd {
		t.Fatalf("issued %v, want LocalUpgd", out)
	}
	c.BusDeliver(&msg.Message{Type: msg.ProcUpgdAck, Line: 0x1000}, now)
	runCPU(c, now, 60)
	if l := c.L2().Probe(0x1000); l.State != cache.Dirty || l.Data != 9 {
		t.Fatalf("L2 %+v after upgrade", l)
	}
}

func TestUpgradeAckAfterInvalRefetches(t *testing.T) {
	c := newCPU(func(ctx *Ctx) {
		ctx.Read(0x1000)
		ctx.Write(0x1000, 9)
	})
	now, _ := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: 0x1000, Data: 1}, now)
	now, out := runCPU(c, now, 60)
	if out[0].Type != msg.LocalUpgd {
		t.Fatalf("want LocalUpgd, got %v", out)
	}
	// Our copy dies before the ack arrives.
	c.BusDeliver(&msg.Message{Type: msg.BusInval, Line: 0x1000, BusProcs: 1}, now)
	c.BusDeliver(&msg.Message{Type: msg.ProcUpgdAck, Line: 0x1000}, now)
	now, out = runCPU(c, now, 20)
	if len(out) != 1 || out[0].Type != msg.LocalReadEx {
		t.Fatalf("misfired ack must refetch exclusively, got %v", out)
	}
	if c.Stats.UpgradeRefetch != 1 {
		t.Error("refetch not counted")
	}
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: 0x1000, Data: 1}, now)
	runCPU(c, now, 60)
	if !c.Done() {
		t.Fatal("program incomplete")
	}
}

func TestNAKRetries(t *testing.T) {
	c := newCPU(func(ctx *Ctx) { ctx.Read(0x1000) })
	now, out := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcNAK, Line: 0x1000, NakOf: msg.LocalRead}, now)
	now, out = runCPU(c, now, int64(sim.DefaultParams().RetryDelay)+10)
	if len(out) != 1 || out[0].Type != msg.LocalRead || !out[0].Retry {
		t.Fatalf("retry issued %v, want marked LocalRead", out)
	}
	if c.Stats.NAKRetries != 1 {
		t.Error("retry not counted")
	}
}

// TestCPUSize pins the per-processor footprint: core.New builds 64 of
// these, and the two monitoring tables most of them never touch (the
// retry-latency histogram, 3.9 KB, and the per-phase transaction counts,
// 2 KB) made each one 6.6 KB until they moved behind pointers.
func TestCPUSize(t *testing.T) {
	if s := unsafe.Sizeof(CPU{}); s > 1024 {
		t.Fatalf("CPU is %d bytes, want <= 1024", s)
	}
}

// TestMonitoringTablesAllocateOnFirstUse: a CPU holds neither table until
// it counts a transaction / completes a NAK'ed reference, reports nothing
// from a table it does not hold, and records the first event in full.
func TestMonitoringTablesAllocateOnFirstUse(t *testing.T) {
	c := newCPU(func(ctx *Ctx) { ctx.Read(0x1000) })
	txns := map[uint8]int64{}
	c.AddPhaseTransactions(txns)
	if c.phaseTxns != nil || c.RetryLatency != nil || len(txns) != 0 {
		t.Fatalf("idle CPU holds monitoring state: phaseTxns=%v RetryLatency=%v txns=%v",
			c.phaseTxns != nil, c.RetryLatency != nil, txns)
	}
	now, _ := runCPU(c, 0, 10) // the miss is issued: one transaction in phase 0
	if c.RetryLatency != nil {
		t.Error("retry-latency histogram allocated before any retried reference completed")
	}
	c.BusDeliver(&msg.Message{Type: msg.ProcNAK, Line: 0x1000, NakOf: msg.LocalRead}, now)
	now, _ = runCPU(c, now, int64(sim.DefaultParams().RetryDelay)+10)
	c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: 0x1000, Data: 5}, now)
	runCPU(c, now, 60)
	if !c.Done() {
		t.Fatal("program did not complete after the fill")
	}
	c.AddPhaseTransactions(txns)
	if txns[0] != 2 || len(txns) != 1 {
		t.Errorf("phase transactions %v, want the request and its retry in phase 0", txns)
	}
	if h := c.RetryLatency; h == nil || h.Count() != 1 || h.Count() != c.RetryStreak.Count() {
		t.Errorf("retry-latency histogram %+v, want the one retried reference", h)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// Two lines mapping to the same direct-mapped set: writing the second
	// evicts the first and must emit a write-back.
	p := sim.DefaultParams()
	p.L2Lines = 64
	conflict := uint64(64 * 64)
	c := newCPU(func(ctx *Ctx) {
		ctx.Write(0x0, 1)
		ctx.Write(conflict, 2)
	})
	now, out := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: 0, Data: 0}, now)
	now, out = runCPU(c, now, 60)
	if len(out) != 1 || out[0].Type != msg.LocalReadEx {
		t.Fatalf("second write issued %v", out)
	}
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: conflict, Data: 0}, now)
	now, out = runCPU(c, now, 60)
	if len(out) != 1 || out[0].Type != msg.LocalWrBack || out[0].Data != 1 {
		t.Fatalf("eviction emitted %v, want write-back of value 1", out)
	}
	_ = now
}

func TestInterventionSuppliesDirtyAndDowngrades(t *testing.T) {
	c := newCPU(func(ctx *Ctx) {
		ctx.Write(0x1000, 5)
		ctx.Compute(1000)
	})
	now, _ := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: 0x1000, Data: 0}, now)
	now, _ = runCPU(c, now, 40)
	c.BusDeliver(&msg.Message{Type: msg.BusIntervention, Line: 0x1000,
		BusProcs: 1, SrcMod: testGeom().ModMem(), AlsoProc: 2}, now)
	now, out := runCPU(c, now, 10)
	if len(out) != 1 || out[0].Type != msg.IntervResp || out[0].Data != 5 {
		t.Fatalf("intervention response %v", out)
	}
	if out[0].AlsoProc != 2 {
		t.Error("AlsoProc not propagated for bus snarfing")
	}
	if l := c.L2().Probe(0x1000); l.State != cache.Shared {
		t.Errorf("owner state %v after shared intervention, want Shared", l.State)
	}
	// An exclusive intervention on the shared copy reports a miss but
	// invalidates it.
	c.BusDeliver(&msg.Message{Type: msg.BusIntervention, Line: 0x1000,
		BusProcs: 1, SrcMod: testGeom().ModMem(), Ex: true}, now)
	now, out = runCPU(c, now, 10)
	if len(out) != 1 || out[0].Type != msg.IntervMiss {
		t.Fatalf("exclusive intervention on shared copy: %v", out)
	}
	if c.L2().Probe(0x1000) != nil {
		t.Error("shared copy survived an exclusive intervention")
	}
	_ = now
}

func TestRMWReturnsOldValue(t *testing.T) {
	var old1, old2 uint64
	c := newCPU(func(ctx *Ctx) {
		old1 = ctx.TestAndSet(0x1000)
		old2 = ctx.FetchAdd(0x1000, 10)
	})
	now, _ := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcDataEx, Line: 0x1000, Data: 0}, now)
	runCPU(c, now, 100)
	if !c.Done() {
		t.Fatal("program incomplete")
	}
	if old1 != 0 || old2 != 1 {
		t.Errorf("TAS returned %d (want 0), FetchAdd returned %d (want 1)", old1, old2)
	}
	if l := c.L2().Probe(0x1000); l.Data != 11 {
		t.Errorf("final value %d, want 11", l.Data)
	}
}

func TestL1FilterCountsHits(t *testing.T) {
	c := newCPU(func(ctx *Ctx) {
		ctx.Read(0x1000)
		ctx.Read(0x1000) // L1 hit
		ctx.Read(0x1000) // L1 hit
	})
	now, _ := runCPU(c, 0, 10)
	c.BusDeliver(&msg.Message{Type: msg.ProcData, Line: 0x1000, Data: 5}, now)
	runCPU(c, now, 100)
	if c.Stats.L1Hits != 2 {
		t.Errorf("L1 hits = %d, want 2", c.Stats.L1Hits)
	}
	if c.Stats.Misses != 1 {
		t.Errorf("misses = %d, want 1", c.Stats.Misses)
	}
}

// TestRunnerNextAcrossGoroutines calls Next from a rotation of goroutines,
// as the pool's workers do (a CPU's station can be ticked by a different
// worker after every relaunch): every Next resumes the program, references
// and results must arrive intact, and the hand-over through the rotation
// must be the only synchronization the race detector needs.
func TestRunnerNextAcrossGoroutines(t *testing.T) {
	const rounds = 200
	r := NewRunner(0, 1, func(c *Ctx) {
		for i := uint64(0); i < rounds; i++ {
			c.Write(0x1000+i*64, i)
			if v := c.Read(0x40 + i*64); v != i*3 {
				t.Errorf("round %d: read resumed with %d, want %d", i, v, i*3)
			}
		}
	})
	const callers = 4
	type turn struct {
		i    uint64
		prev uint64
	}
	turns := make([]chan turn, callers)
	for g := range turns {
		turns[g] = make(chan turn)
	}
	finished := make(chan struct{})
	for g := 0; g < callers; g++ {
		go func(g int) {
			for tn := range turns[g] {
				if tn.i == rounds {
					if ref := r.Next(tn.prev); ref.Kind != RefDone {
						t.Errorf("final ref %+v, want RefDone", ref)
					}
					close(finished)
					continue
				}
				w := r.Next(tn.prev)
				if w.Kind != RefWrite || w.Addr != 0x1000+tn.i*64 || w.Data != tn.i {
					t.Errorf("round %d: write ref %+v", tn.i, w)
				}
				rd := r.Next(0) // resumes the write, whose result the program discards
				if rd.Kind != RefRead || rd.Addr != 0x40+tn.i*64 {
					t.Errorf("round %d: read ref %+v", tn.i, rd)
				}
				turns[(g+1)%callers] <- turn{i: tn.i + 1, prev: tn.i * 3}
			}
		}(g)
	}
	turns[0] <- turn{}
	<-finished
	for _, ch := range turns {
		close(ch)
	}
	if !r.Done() {
		t.Error("runner not done after RefDone")
	}
}

// TestRunnerStop abandons a program parked mid-reference: its deferred
// functions run, a Ctx call from one of them unwinds again instead of
// parking, and Stop on a finished or never-started runner does nothing.
func TestRunnerStop(t *testing.T) {
	var deferred, afterRead bool
	r := NewRunner(0, 1, func(c *Ctx) {
		defer func() {
			deferred = true
			c.Read(0x80) // must not park a stopped program
			afterRead = true
		}()
		c.Read(0x40)
		t.Error("program resumed after Stop")
	})
	if ref := r.Next(0); ref.Kind != RefRead {
		t.Fatalf("first ref %+v", ref)
	}
	r.Stop()
	if !deferred || afterRead {
		t.Errorf("deferred ran = %v, continued past a Ctx call after Stop = %v; want true, false", deferred, afterRead)
	}
	if !r.Done() {
		t.Error("stopped runner not done")
	}
	r.Stop() // idempotent

	ran := false
	never := NewRunner(0, 1, func(c *Ctx) { ran = true })
	never.Stop()
	if ran {
		t.Error("Stop started a never-started program")
	}

	fin := NewRunner(0, 1, func(c *Ctx) {})
	if ref := fin.Next(0); ref.Kind != RefDone {
		t.Fatalf("empty program's first ref %+v", ref)
	}
	fin.Stop()
}

// BenchmarkHandshake prices one handshake (Ctx.Cycle: park the
// program, resume it with the result): ns per Next. Run with -cpu 1,4 to
// see what a second P costs — the coroutine switch keeps the program on the
// caller's thread, so the two lines should read alike.
func BenchmarkHandshake(b *testing.B) {
	r := NewRunner(0, 1, func(c *Ctx) {
		for {
			c.Cycle()
		}
	})
	defer r.Stop()
	r.Next(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Next(uint64(i))
	}
}
