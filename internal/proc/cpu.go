package proc

import (
	"fmt"

	"numachine/internal/bus"
	"numachine/internal/cache"
	"numachine/internal/hist"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
	"numachine/internal/trace"
)

// state is the CPU's execution state.
type state uint8

const (
	sThink         state = iota // executing; fetch the next reference at thinkUntil
	sWaitMem                    // one outstanding miss at the memory system
	sWaitRetry                  // NAK'ed; re-issue at retryAt
	sWaitBarrier                // parked at a barrier; released at thinkUntil, set by the last arrival
	sWaitInterrupt              // waiting for a special-function completion interrupt
	sDone
)

// Stats is the processor module's counters and, summed over processors
// field by field, the counter half of core.Results' Proc section: a
// counter added here is reported with no other edit. The json:"-" fields
// were never part of that section's JSON and stay out of it, so every
// recorded Results digest holds.
type Stats struct {
	Reads, Writes  int64
	L1Hits         int64
	L2Hits         int64
	Misses         int64
	Upgrades       int64
	WriteBacks     int64
	NAKRetries     int64
	UpgradeRefetch int64 `json:"-"` // upgrade acked after our copy died; refetched
	Interventions  int64 `json:"-"` // served from our dirty L2
	StallCycles    int64 // cycles blocked on the memory system
	BarrierCycles  int64
}

// CPU is one processor module: R4400-like core + primary cache model +
// secondary cache + external agent.
type CPU struct {
	GlobalID int
	Local    int // index within the station

	g topo.Geometry
	p *sim.Params // the machine's, shared by every component; read-only

	runner *Runner
	l2     cache.Cache
	l1     *cache.Cache // timing filter, &l1Tags or nil (no filter); data/coherence live in the L2
	l1Tags cache.Cache

	// Out is the CPU's send side on the station bus: its output FIFO, the
	// station's message pool (Msgs, wired by core) and its Station.
	bus.Out

	st         state
	thinkUntil int64
	retryAt    int64
	lastResult uint64
	finishAt   int64 // completion timestamp of the parallel section
	statsAt    int64 // first cycle whose stall/barrier counters are unaccounted

	// NAK-retry tracking: nakStreak counts consecutive NAKs of the
	// current reference (the exponential back-off exponent and the
	// forward-progress monitor's retry budget), firstIssueAt stamps the
	// reference's first issue for the retry-latency histogram. retryRNG
	// is the per-CPU jitter stream; seeded from (RetryJitterSeed,
	// GlobalID) so draws are identical under every cycle loop.
	nakStreak    int
	firstIssueAt int64
	retryRNG     sim.RNG

	// The single outstanding reference.
	cur     Ref
	curLine uint64
	started bool

	// A fetched reference whose coalesced compute prefix (Ref.Pre) is
	// still being burned; executed when thinkUntil arrives.
	stash    Ref
	hasStash bool

	// Front-end hit fast path (see fasthits.go). epoch is the coherence
	// epoch: bumped on every event that can change this CPU's hit/miss
	// outcomes; the fast path validates its snapshot against it. fastGuard
	// is the virtual cycle of the last fast-resolved probe — no
	// cache-affecting delivery may land before it (assertHitWindow).
	epoch     uint64
	fastGuard int64

	// Horizon, when non-nil, returns a sound lower bound on the earliest
	// cycle at which a bus delivery could reach this CPU, given the current
	// cycle; wired by core from the station bus state. The fast path
	// resolves hits only at virtual cycles at or below the horizon.
	Horizon func(now int64) int64

	// HomeOf maps a line to its home station (page placement); wired by core.
	HomeOf func(line uint64) int
	// RetryChoice, when non-nil, overrides retryDelay: the model checker
	// installs it to turn NAK retry timing into an explored choice point.
	// It receives the consecutive-NAK count and the fixed base delay.
	RetryChoice func(nakStreak int, base int64) int64
	// OnBarrier is invoked when the CPU arrives at a barrier; once every
	// participant has arrived, core sets each one's release cycle with
	// FinishBarrier, and Tick releases the CPU at that cycle.
	OnBarrier func(cpu *CPU, now int64)

	// Interrupt register (§3.1.1).
	InterruptReg uint64

	// Tr is the structured-event trace sink (nil when tracing is off).
	Tr *trace.Sink

	// phase is the processor's phase-identifier register (§3.3.4), read
	// through Phase; phaseTxns counts issued transactions per phase,
	// aggregated serially by core. The 2 KB table is allocated by the
	// first counted transaction (countTxn): an idle CPU holds none.
	phase     uint8
	phaseTxns *[256]int64

	Stats Stats

	// RetryLatency histograms the issue-to-completion latency of
	// references that were NAK'ed at least once; RetryStreak samples how
	// many consecutive NAKs each such reference absorbed. Together they
	// make retry convoys visible in the results and telemetry. The
	// histogram is 3.9 KB and most CPUs of most runs never retry, so it is
	// allocated by the first such completion (nil until then).
	RetryLatency *hist.Hist
	RetryStreak  monitor.Sampler
}

// New builds a standalone processor module over a private copy of p.
func New(g topo.Geometry, p sim.Params, globalID int, runner *Runner, l1Lines int) *CPU {
	c := new(CPU)
	c.Init(g, &p, globalID, runner, l1Lines)
	return c
}

// Init builds a processor module in place, in a zero CPU that must not move
// afterwards (the L1 pointer addresses a field of c). p is read, never
// written, for the life of the CPU. l1Lines of 0 disables the
// primary-cache timing filter.
func (c *CPU) Init(g topo.Geometry, p *sim.Params, globalID int, runner *Runner, l1Lines int) {
	c.GlobalID = globalID
	c.Local = g.LocalProc(globalID)
	c.Addr(g, g.StationOfProc(globalID), g.ModProc(c.Local))
	c.g, c.p = g, p
	c.runner = runner
	c.l2 = *cache.New(p.L2Lines, p.LineSize)
	if l1Lines > 0 {
		c.l1Tags = *cache.New(l1Lines, p.LineSize)
		c.l1 = &c.l1Tags
	}
	c.retryRNG = *sim.NewRNG(p.RetryJitterSeed ^ (0x9e3779b97f4a7c15 * (uint64(globalID) + 1)))
	if runner == nil {
		c.st = sDone // idle until a program is loaded
	}
}

// SetRunner loads a program into an idle CPU; nil returns the CPU to idle.
func (c *CPU) SetRunner(r *Runner) {
	c.runner = r
	c.st = sThink
	if r == nil {
		c.st = sDone
	}
	c.thinkUntil = 0
	c.hasStash = false
}

// L2 exposes the secondary cache for the invariant checker and tests.
func (c *CPU) L2() *cache.Cache { return &c.l2 }

// Phase returns the current phase-identifier register value.
func (c *CPU) Phase() uint8 { return c.phase }

// AddPhaseTransactions folds this CPU's per-phase transaction counts into
// dst, skipping empty phases.
func (c *CPU) AddPhaseTransactions(dst map[uint8]int64) {
	if c.phaseTxns == nil {
		return
	}
	for ph, n := range c.phaseTxns {
		if n != 0 {
			dst[uint8(ph)] += n
		}
	}
}

// Done reports whether the workload has completed.
func (c *CPU) Done() bool { return c.st == sDone }

// Stalled reports whether the CPU is blocked on the memory system (the
// states the starvation monitor watches).
func (c *CPU) Stalled() bool { return c.st == sWaitMem || c.st == sWaitRetry }

// StateName returns the execution-state mnemonic (diagnostics).
func (c *CPU) StateName() string {
	return [...]string{"think", "waitMem", "waitRetry", "waitBarrier", "waitIntr", "done"}[c.st]
}

// Retries returns how many consecutive NAKs the in-flight reference has
// absorbed so far (0 when nothing is being retried).
func (c *CPU) Retries() int { return c.nakStreak }

// PendingLine returns the line of the in-flight reference (diagnostics).
func (c *CPU) PendingLine() uint64 { return c.curLine }

// Pending describes what the CPU is blocked on (diagnostics).
func (c *CPU) Pending() string {
	return fmt.Sprintf("%s line=%#x kind=%d", c.StateName(), c.curLine, c.cur.Kind)
}

// FinishedAt returns the cycle the workload completed (valid once Done).
func (c *CPU) FinishedAt() int64 { return c.finishAt }

// NextWork reports the earliest cycle at or after now at which Tick can do
// anything beyond per-cycle stall accounting: the end of the current
// compute burst, the scheduled NAK retry, the barrier release (sim.Never
// until the last participant arrives), or sim.Never while the CPU can only
// be revived by a bus delivery. The cycle loop uses it to skip quiescent
// ticks; syncStats reconciles the counters the skipped ticks would have
// incremented.
func (c *CPU) NextWork(now int64) int64 {
	switch c.st {
	case sThink, sWaitBarrier:
		return c.thinkUntil
	case sWaitRetry:
		return c.retryAt
	default: // sWaitMem, sWaitInterrupt, sDone
		return sim.Never
	}
}

// syncStats accounts the per-cycle stall/barrier counters for every cycle
// in [statsAt, limit]. The CPU's state is constant over any skipped
// stretch (that is what made the ticks skippable), so the whole gap is
// charged to the current state.
func (c *CPU) syncStats(limit int64) {
	if c.statsAt > limit {
		return
	}
	d := limit - c.statsAt + 1
	switch c.st {
	case sWaitMem, sWaitInterrupt, sWaitRetry:
		c.Stats.StallCycles += d
	case sWaitBarrier:
		c.Stats.BarrierCycles += d
	}
	c.statsAt = limit + 1
}

// SyncStats brings the stall/barrier counters up to date through limit
// without advancing the CPU (called before snapshotting results).
func (c *CPU) SyncStats(limit int64) { c.syncStats(limit) }

// Tick advances the CPU one cycle.
func (c *CPU) Tick(now int64) {
	c.syncStats(now - 1)
	c.statsAt = now + 1
	switch c.st {
	case sDone:
		return
	case sWaitMem, sWaitInterrupt:
		c.Stats.StallCycles++
		return
	case sWaitRetry:
		if now < c.retryAt {
			c.Stats.StallCycles++
			return
		}
		c.issue(now, true)
		return
	case sWaitBarrier:
		if now < c.thinkUntil {
			c.Stats.BarrierCycles++
			return
		}
		c.bumpEpoch() // synchronization boundary: close any open fast window
		c.Tr.Emit(now, trace.KindBarrierRelease, 0, 0, int32(c.phase), 0)
		c.lastResult = 0
		c.st = sThink
		fallthrough
	case sThink:
		if now < c.thinkUntil {
			return
		}
		var ref Ref
		if c.hasStash {
			ref, c.hasStash = c.stash, false
		} else {
			ref = c.fetch(now)
		}
		if ref.Pre > 0 {
			// Burn the coalesced compute prefix first; the reference itself
			// executes at now+Pre, exactly when uncoalesced compute
			// references would have reached it.
			c.stash, c.hasStash = ref, true
			c.stash.Pre = 0
			c.thinkUntil = now + ref.Pre
			return
		}
		c.process(ref, now)
	}
}

// fetch switches to the program for its next reference. The program runs
// only inside Next (a coroutine switch: strict alternation), so the fast
// path may resolve hits against the live caches; publish its burst window
// first and adopt the burst's last probe as the delivery guard after. A
// panic in the program surfaces in Next; it is re-raised naming the
// processor and the cycle, on the goroutine ticking this CPU, where the
// callers of Machine.Run and Step can recover it.
func (c *CPU) fetch(now int64) Ref {
	defer func() {
		if e := recover(); e != nil {
			panic(fmt.Sprintf("proc: cpu[%d] program panicked at cycle %d: %v", c.GlobalID, now, e))
		}
	}()
	c.openFastWindow(now)
	ref := c.runner.Next(c.lastResult)
	c.adoptFastGuard()
	return ref
}

// process starts executing one reference.
func (c *CPU) process(ref Ref, now int64) {
	c.cur = ref
	switch ref.Kind {
	case RefDone:
		c.st = sDone
		c.finishAt = now
	case RefCycle:
		c.lastResult = uint64(now)
		c.thinkUntil = now + 1
	case RefPrefetch:
		line := c.l2.Align(ref.Addr)
		if c.HomeOf(line) != c.Station && c.l2.Probe(line) == nil {
			c.Send(msg.Message{
				Type: msg.PrefetchReq, Line: line, Home: c.HomeOf(line),
				SrcMod: c.Local, DstMod: c.g.ModNC(),
				SrcStation: c.Station, DstStation: c.Station,
				Requester: c.GlobalID,
			})
		}
		c.lastResult = 0
		c.thinkUntil = now + 1
	case RefPhase:
		c.phase = ref.Phase
		c.Tr.Emit(now, trace.KindPhase, 0, 0, int32(ref.Phase), 0)
		c.lastResult = 0
		c.thinkUntil = now + 1
	case RefBarrier:
		c.st = sWaitBarrier
		c.thinkUntil = sim.Never
		if c.OnBarrier == nil {
			panic("proc: barrier used without a barrier controller")
		}
		c.Tr.Emit(now, trace.KindBarrierArrive, 0, 0, int32(c.phase), 0)
		c.OnBarrier(c, now)
	case RefKill:
		c.curLine = c.l2.Align(ref.Addr)
		c.st = sWaitInterrupt
		c.sendKill(now)
	case RefRead:
		c.Stats.Reads++
		c.curLine = c.l2.Align(ref.Addr)
		c.startRead(now)
	case RefWrite, RefTAS, RefFetchAdd:
		c.Stats.Writes++
		c.curLine = c.l2.Align(ref.Addr)
		c.startWrite(now)
	default:
		panic(fmt.Sprintf("proc: unknown ref kind %d", ref.Kind))
	}
}

// hitCost classifies a hit on a line the L2 holds against the
// primary-cache timing filter — an L1 hit, or an L2 hit that fills the
// filter — counts it and returns the cycles it consumes. The back end
// (startRead, startWrite) and the front-end fast path (fasthits.go) both
// classify through it, so a hit costs the same whichever side resolves it.
func (c *CPU) hitCost(line uint64) int64 {
	if c.l1 != nil && c.l1.Probe(line) != nil {
		c.Stats.L1Hits++
		return 1
	}
	c.Stats.L2Hits++
	c.l1Fill(line)
	return int64(c.p.L2HitCycles)
}

func (c *CPU) startRead(now int64) {
	if l := c.l2.Probe(c.curLine); l != nil {
		c.lastResult = l.Data
		c.thinkUntil = now + c.hitCost(c.curLine)
		return
	}
	c.Stats.Misses++
	c.issue(now, false)
}

func (c *CPU) startWrite(now int64) {
	if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Dirty {
		c.lastResult = l.Data
		l.Data = c.newValue(l.Data)
		c.thinkUntil = now + c.hitCost(c.curLine)
		return
	}
	if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Shared {
		c.Stats.Upgrades++
	} else {
		c.Stats.Misses++
	}
	c.issue(now, false)
}

// newValue computes the line value after the current write-class reference.
func (c *CPU) newValue(old uint64) uint64 {
	switch c.cur.Kind {
	case RefTAS:
		return 1
	case RefFetchAdd:
		return old + c.cur.Data
	default:
		return c.cur.Data
	}
}

// issue sends the memory request for the current reference (or re-issues
// it after a NAK when retry is set).
func (c *CPU) issue(now int64, retry bool) {
	if retry {
		c.Stats.NAKRetries++
	} else {
		c.firstIssueAt = now
	}
	if c.cur.Kind == RefKill {
		// A NAK'ed special function re-issues whole.
		c.st = sWaitInterrupt
		c.sendKill(now)
		return
	}
	var t msg.Type
	switch c.cur.Kind {
	case RefRead:
		t = msg.LocalRead
	default:
		if l := c.l2.Probe(c.curLine); l != nil && l.State == cache.Shared {
			t = msg.LocalUpgd
		} else {
			t = msg.LocalReadEx
		}
	}
	c.st = sWaitMem
	c.send(t, now, retry)
}

// retryDelay computes the back-off before re-issuing after a NAK, with
// nakStreak NAKs already absorbed by the current reference.
func (c *CPU) retryDelay() int64 {
	if c.RetryChoice != nil {
		return c.RetryChoice(c.nakStreak, int64(c.p.RetryDelay))
	}
	return c.p.NAKDelay(c.nakStreak, &c.retryRNG)
}

// nak moves the CPU to the retry state after a ProcNAK.
func (c *CPU) nak(m *msg.Message, now int64) {
	d := c.retryDelay()
	c.Tr.Emit(now, trace.KindNAK, m.Line, m.TxnID, int32(m.NakOf), int32(d))
	c.nakStreak++
	c.st = sWaitRetry
	c.retryAt = now + d
}

// countTxn attributes one issued transaction to the current phase.
func (c *CPU) countTxn() {
	if c.phaseTxns == nil {
		c.phaseTxns = new([256]int64)
	}
	c.phaseTxns[c.phase]++
}

// homeMod returns line's home station and the station-bus module that
// serves it: the memory module when this station is the home, else the
// network cache.
func (c *CPU) homeMod(line uint64) (home, mod int) {
	home = c.HomeOf(line)
	if home == c.Station {
		return home, c.g.ModMem()
	}
	return home, c.g.ModNC()
}

func (c *CPU) send(t msg.Type, now int64, retry bool) {
	home, dst := c.homeMod(c.curLine)
	c.countTxn()
	rb := int32(0)
	if retry {
		rb = 1
	}
	c.Tr.Emit(now, trace.KindTxnBegin, c.curLine, 0, int32(t), int32(c.phase)<<1|rb)
	c.Send(msg.Message{
		Type: t, Line: c.curLine, Home: home,
		SrcMod: c.Local, DstMod: dst,
		SrcStation: c.Station, DstStation: c.Station,
		Requester: c.GlobalID, ReqStation: c.Station,
		Retry: retry,
	})
}

func (c *CPU) sendKill(now int64) {
	home := c.HomeOf(c.curLine)
	c.countTxn()
	c.Tr.Emit(now, trace.KindTxnBegin, c.curLine, 0, int32(msg.KillReq), int32(c.phase)<<1)
	m := c.Send(msg.Message{
		Type: msg.KillReq, Line: c.curLine, Home: home,
		SrcMod: c.Local, SrcStation: c.Station,
		Requester: c.GlobalID, ReqStation: c.Station,
	})
	if home == c.Station {
		m.DstMod = c.g.ModMem()
		m.DstStation = c.Station
	} else {
		m.DstMod = c.g.ModRI()
		m.DstStation = home
	}
}

// l1Fill records the line in the primary-cache timing filter.
func (c *CPU) l1Fill(line uint64) {
	if c.l1 == nil {
		return
	}
	c.l1.Insert(line, cache.Shared, 0)
}

// fill installs a line in the L2 (write-back of the victim included) and
// completes the current reference.
func (c *CPU) fill(st cache.State, data uint64, now int64) {
	c.bumpEpoch() // a fill (and any eviction it forces) changes hit outcomes
	victim := c.l2.Insert(c.curLine, st, data)
	if victim.State == cache.Dirty {
		c.writeBack(victim, now)
	}
	if victim.State != cache.Invalid && c.l1 != nil {
		c.l1.Invalidate(victim.Addr)
	}
	c.l1Fill(c.curLine)
	c.complete(now)
}

func (c *CPU) writeBack(victim cache.Line, now int64) {
	c.Stats.WriteBacks++
	c.Tr.Emit(now, trace.KindWriteBack, victim.Addr, 0, 0, 0)
	home, dst := c.homeMod(victim.Addr)
	c.Send(msg.Message{
		Type: msg.LocalWrBack, Line: victim.Addr, Home: home,
		SrcMod: c.Local, DstMod: dst,
		SrcStation: c.Station, DstStation: c.Station,
		Data: victim.Data,
	})
}

// complete finishes the current reference after a fill.
func (c *CPU) complete(now int64) {
	c.bumpEpoch() // state promotion and/or data mutation below
	l := c.l2.Probe(c.curLine)
	if l == nil {
		panic("proc: complete without a filled line")
	}
	switch c.cur.Kind {
	case RefRead:
		c.lastResult = l.Data
	default:
		c.lastResult = l.Data // old value for RMW, ignored for plain writes
		l.Data = c.newValue(l.Data)
	}
	c.Tr.Emit(now, trace.KindTxnEnd, c.curLine, 0, int32(c.cur.Kind), int32(c.phase))
	c.retryDone(now)
	c.st = sThink
	c.thinkUntil = now + int64(c.p.L2FillCycles+c.p.ProcMissOverhead)
}

// retryDone closes out the retry tracking of a completing reference,
// feeding the latency histogram when it was NAK'ed at least once.
func (c *CPU) retryDone(now int64) {
	if c.nakStreak == 0 {
		return
	}
	c.RetryStreak.Sample(int64(c.nakStreak))
	if c.RetryLatency == nil {
		c.RetryLatency = new(hist.Hist)
	}
	c.RetryLatency.Add(now - c.firstIssueAt)
	c.nakStreak = 0
}

// FinishBarrier sets the cycle at which the CPU leaves its barrier. The
// release is the CPU's own wake (NextWork): Tick at that cycle charges no
// barrier cycle, emits the release and fetches the next reference.
func (c *CPU) FinishBarrier(at int64) {
	if c.st != sWaitBarrier {
		panic("proc: FinishBarrier on a CPU not at a barrier")
	}
	c.thinkUntil = at
}

// BusDeliver implements bus.Module: responses, invalidations and
// interventions arriving from the station bus.
//
// The bus phase follows the CPU phase within a cycle, so the naive loop
// would already have ticked (and stall-charged) this CPU at now before the
// delivery: account through now inclusive before mutating state.
func (c *CPU) BusDeliver(m *msg.Message, now int64) {
	c.syncStats(now)
	switch m.Type {
	case msg.ProcData:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.fill(cache.Shared, m.Data, now)
		}
	case msg.ProcDataEx:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.fill(cache.Dirty, m.Data, now)
		}
	case msg.ProcUpgdAck:
		if c.st != sWaitMem || m.Line != c.curLine {
			return
		}
		l := c.l2.Probe(c.curLine)
		if l == nil {
			// Our shared copy died while the upgrade was in flight; the ack
			// grants ownership of data we no longer hold. Fetch it.
			c.Stats.UpgradeRefetch++
			c.send(msg.LocalReadEx, now, false)
			return
		}
		l.State = cache.Dirty
		c.complete(now)
	case msg.ProcNAK:
		if c.st == sWaitMem && m.Line == c.curLine {
			c.nak(m, now)
		} else if c.st == sWaitInterrupt && m.Line == c.curLine && m.NakOf == msg.KillReq {
			// The home refused a special function on a locked line; retry
			// it like any NAK'ed request instead of waiting forever for an
			// interrupt that will never come.
			c.nak(m, now)
		}
	case msg.BusInval:
		c.assertHitWindow(now)
		c.bumpEpoch()
		if _, ok := c.l2.Invalidate(m.Line); ok {
			c.Tr.Emit(now, trace.KindInval, m.Line, m.TxnID, 0, 0)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		}
	case msg.BusIntervention:
		c.assertHitWindow(now)
		c.bumpEpoch() // may invalidate or downgrade our dirty copy
		c.serveIntervention(m, now)
	case msg.IntervResp:
		// Snarfed off the bus (AlsoProc): our pending miss is satisfied by
		// the owner's response in the same transfer (§2.3).
		if c.st == sWaitMem && m.Line == c.curLine {
			if c.cur.Kind == RefRead {
				c.fill(cache.Shared, m.Data, now)
			} else {
				c.fill(cache.Dirty, m.Data, now)
			}
		}
	case msg.NetInterrupt:
		c.bumpEpoch() // kill completion: a synchronization boundary
		c.InterruptReg |= 1 << uint(m.SrcStation)
		if c.st == sWaitInterrupt {
			c.Tr.Emit(now, trace.KindTxnEnd, c.curLine, m.TxnID, int32(c.cur.Kind), int32(c.phase))
			c.retryDone(now)
			c.lastResult = 0
			c.st = sThink
			c.thinkUntil = now + 1
		}
	default:
		panic(fmt.Sprintf("proc[%d]: unexpected bus message %v", c.GlobalID, m))
	}
}

// serveIntervention answers a (possibly broadcast) intervention: supply
// the line if we hold it dirty, otherwise report a miss; exclusive
// interventions also invalidate any copy we keep.
func (c *CPU) serveIntervention(m *msg.Message, now int64) {
	l := c.l2.Probe(m.Line)
	resp := c.Send(msg.Message{
		Type: msg.IntervMiss, Line: m.Line, Home: m.Home,
		SrcMod: c.Local, DstMod: m.SrcMod,
		SrcStation: c.Station, DstStation: c.Station,
		AlsoProc: m.AlsoProc,
	})
	ex := int32(0)
	if m.Ex {
		ex = 1
	}
	if l != nil && l.State == cache.Dirty {
		c.Stats.Interventions++
		c.Tr.Emit(now, trace.KindInterv, m.Line, m.TxnID, 1, ex)
		resp.Type, resp.Data = msg.IntervResp, l.Data
		if m.Ex {
			c.l2.Invalidate(m.Line)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		} else {
			l.State = cache.Shared
		}
	} else {
		c.Tr.Emit(now, trace.KindInterv, m.Line, m.TxnID, 0, ex)
		if m.Ex && l != nil {
			c.l2.Invalidate(m.Line)
			if c.l1 != nil {
				c.l1.Invalidate(m.Line)
			}
		}
	}
}
