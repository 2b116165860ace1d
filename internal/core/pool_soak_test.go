package core

import (
	"runtime"
	"testing"

	"numachine/internal/msg"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// TestPoolDoubleFreeSoak runs representative scenarios — fault-free and
// faulted, under both optimized cycle loops — with the pools' double-free
// guard armed. A Put site that releases a message or directory record
// still owned elsewhere (a multicast original, a dup-faulted chain, a
// forwarded response) panics at the second Put into its birth pool
// instead of silently aliasing two owners; combined with -race in CI this
// covers both lifetime bugs the recycling discipline could introduce, and
// the race detector also sees any ring-side Put into another station's
// pool that escaped the serial interconnect phase.
func TestPoolDoubleFreeSoak(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	for _, name := range []string{"mixed/g2x2x2-opts1-s12", "mixed/g2x3x3-opts3-s14", "kill-and-locks"} {
		sc := equivScenarioNamed(t, name)
		for _, loop := range equivLoops[1:] {
			t.Run(sc.name+"/"+loop, func(t *testing.T) {
				runCase(t, sc, equivRun{loop: loop, fast: true})
			})
		}
	}
	// Faulted: drops orphan messages, dups alias one original across two
	// packet chains — exactly the lifetimes the Put guards must respect.
	for _, fs := range faultSchedules() {
		for _, sc := range faultScenarios(t) {
			t.Run(sc.name+"/"+fs.name+"/"+equivLoops[2], func(t *testing.T) {
				runCase(t, sc, equivRun{loop: equivLoops[2], fast: true, fault: &fs})
			})
		}
	}
}

// TestMessagePoolRecyclesInSteadyState pins that the pools actually engage
// on a real machine: across a traffic-heavy run, recycled messages must
// outnumber fresh allocations — a silently dead Put path (or a pool left
// unwired in core.New) fails here long before it shows up as a throughput
// regression in the benchmark manifest.
func TestMessagePoolRecyclesInSteadyState(t *testing.T) {
	sc := equivScenarioNamed(t, "mixed/g4x2x2-opts2-s13")
	m, _, _ := runCase(t, sc, equivRun{loop: "scheduled", fast: true})
	var news, hits int64
	for _, b := range m.Buses {
		n, h := b.Msgs.Stats()
		news += n
		hits += h
	}
	if news == 0 && hits == 0 {
		t.Fatal("message pools unwired: no Get ever reached them")
	}
	if hits < news {
		t.Errorf("message pools barely engage: %d fresh allocations vs %d recycles", news, hits)
	}
	t.Logf("message pools: %d fresh, %d recycled (%.1f%% hit rate)",
		news, hits, 100*float64(hits)/float64(news+hits))
}

// TestMulticastRefcountReleaseOrder targets the release-order hazard the
// packet reference count introduces: duplicate faults alias one message
// across two packet chains, so releases arrive interleaved and out of
// chain order, and a refcount bug (a copy path that forgets AddRef, a
// death site that releases twice) surfaces as an underflow panic or — with
// the pool guard armed — a double free at the recycle site. The test runs
// the invalidation-heavy hierarchical scenario under both dup schedules
// and both optimized loops, requires that duplicates were actually
// injected, and that multicast originals still recycle (hits keep
// accruing) rather than silently falling back to the GC.
func TestMulticastRefcountReleaseOrder(t *testing.T) {
	defer msg.SetPoolDebug(msg.SetPoolDebug(true))
	sc := equivScenarioNamed(t, "mixed/g2x2x2-opts1-s12") // hierarchical mixed traffic: invalidations to duplicate
	for _, fs := range faultSchedules() {
		if fs.name != "dup" && fs.name != "drop-dup" {
			continue
		}
		for _, loop := range equivLoops[1:] {
			t.Run(fs.name+"/"+loop, func(t *testing.T) {
				m, _, _ := runCase(t, sc, equivRun{loop: loop, fast: true, fault: &fs})
				if m.Results().Fault.Dups == 0 {
					t.Fatal("schedule injected no duplicate packets")
				}
				var news, hits int64
				for _, b := range m.Buses {
					n, h := b.Msgs.Stats()
					news += n
					hits += h
				}
				if hits == 0 {
					t.Fatalf("message pools never recycled (%d fresh allocations)", news)
				}
			})
		}
	}
}

// TestAllocsPerRef pins the pooled hot paths: steady-state heap
// allocations per completed reference on a dense, invalidation-heavy
// sharing run. An identical warm-up phase runs first so every free list
// (each station's messages, the directory txns), reassembly list and
// queue backing array — the ring FIFOs of packet values included —
// reaches its working-set size; the measured phase then exercises only
// the recycling paths. With message, txn and multicast-original
// recycling wired, every record going home to the pool that built it,
// the measured phase allocates essentially nothing — the budget is a
// hard zero-alloc gate with only enough slack for runtime-internal
// noise, and trips immediately if any recycling path is lost.
func TestAllocsPerRef(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const lines, perProc = 32, 3000
	base := m.AllocLines(lines)
	prog := func(c *proc.Ctx) {
		rng := sim.NewRNG(uint64(c.ID)*977 + 5)
		for i := 0; i < perProc; i++ {
			line := base + uint64(rng.Intn(lines))*64
			if rng.Intn(8) < 5 {
				c.Read(line)
			} else {
				c.Write(line, uint64(c.ID)<<32|uint64(i))
			}
		}
		c.Barrier()
	}
	progs := make([]proc.Program, m.Geometry().Procs())
	for i := range progs {
		progs[i] = prog
	}
	// Warm-up: same traffic, fills every pool to working-set size.
	m.Load(progs)
	m.Run()
	warmRefs := m.Results().Proc.Reads + m.Results().Proc.Writes

	m.Load(progs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.Run()
	runtime.ReadMemStats(&after)
	r := m.Results()
	refs := r.Proc.Reads + r.Proc.Writes - warmRefs
	if refs == 0 {
		t.Fatal("no references completed")
	}
	perRef := float64(after.Mallocs-before.Mallocs) / float64(refs)
	const budget = 0.05
	if perRef > budget {
		t.Errorf("allocs per reference = %.3f, budget %.2f: a zero-alloc hot path regressed", perRef, budget)
	}
	t.Logf("allocs per reference: %.4f (%d refs)", perRef, refs)
}

// TestFreeListsStayHome pins the rule that every record dies into the pool
// that built it (see msg.Pool) under the traffic that would expose a
// breach: every hot line is homed on station 0, so requests and
// write-backs flow into that one station and responses and invalidations
// flow out of it. A message that died into its receiver's pool would grow
// station 0's free list while the senders kept allocating, and with
// nothing to level the pools the senders' fresh allocations would grow
// with the run. After an identical warm-up every pool holds its own
// station's working set, so the measured run may allocate only the
// handful of messages a slightly different interleaving needs at a peak.
func TestFreeListsStayHome(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// More hot lines than a station's caches hold, so remote stations
	// write back evicted dirty lines to the home as well as fetching them.
	const lines, perProc = 256, 3000
	base := m.AllocAt(0, lines*m.Params().LineSize)
	prog := func(c *proc.Ctx) {
		rng := sim.NewRNG(uint64(c.ID)*131 + 7)
		for i := 0; i < perProc; i++ {
			line := base + uint64(rng.Intn(lines))*64
			if rng.Intn(4) == 0 {
				c.Write(line, uint64(c.ID)<<32|uint64(i))
			} else {
				c.Read(line)
			}
		}
		c.Barrier()
	}
	progs := make([]proc.Program, m.Geometry().Procs())
	for i := range progs {
		progs[i] = prog
	}
	fresh := func() []int64 {
		news := make([]int64, len(m.Buses))
		for s, b := range m.Buses {
			news[s], _ = b.Msgs.Stats()
		}
		return news
	}
	m.Load(progs)
	m.Run()
	warm := fresh()
	m.Load(progs)
	m.Run()
	const slack = 16
	for s, n := range fresh() {
		if d := n - warm[s]; d > slack {
			t.Errorf("station %d's message pool made %d fresh allocations in the measured run (warm-up %d), want at most %d",
				s, d, warm[s], slack)
		} else {
			t.Logf("station %d: %d fresh in the measured run (warm-up %d)", s, d, warm[s])
		}
	}
}
