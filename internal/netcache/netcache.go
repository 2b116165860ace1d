// Package netcache implements the NUMAchine network cache (§3.1.4): a
// large, direct-mapped, DRAM-based tertiary cache shared by the processors
// of a station, caching lines whose home memory is remote. It implements
// the NC side of the two-level coherence protocol — the state machine of
// Figure 6 with states NotIn, LV, LI, GV and GI plus locked versions — and
// the four NC effects measured in §4.5: migration, caching, combining and
// coherence localization, plus the false-remote-request recovery of §4.6.
// Processor requests enter through localReq. A bus intervention reply
// finds its work through intervTxn, in the locked entry or, for a line
// the NC no longer holds, in the side table, and checkIntervDone finishes
// local interventions, network-intervention service and recovery alike.
//
// Concurrency contract: like the memory module, the NC is station-local —
// Tick reads its own input queue and writes its own outbound bus queue
// only — so it ticks on its station's phase-1 worker of the
// station-parallel cycle loop.
package netcache

import (
	"fmt"

	"numachine/internal/bus"
	"numachine/internal/memory"
	"numachine/internal/monitor"
	"numachine/internal/msg"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// Alias the directory states; the NC uses the same four states as memory,
// with "NotIn" represented by an invalid entry.
const (
	LV = memory.LV
	LI = memory.LI
	GV = memory.GV
	GI = memory.GI
)

type txnKind uint8

const (
	txnFetch       txnKind = iota // remote request outstanding at the home memory
	txnLocalInterv                // serving a local request at LI via bus intervention
	txnNetServe                   // serving the home memory's network intervention
	txnRecover                    // false-remote recovery: broadcast intervention
)

func (k txnKind) String() string {
	return [...]string{"fetch", "local-interv", "net-serve", "recover"}[k]
}

// txn tracks the work a locked entry is waiting on.
type txn struct {
	kind     txnKind
	origType msg.Type // the request that started it

	// Local requester (fetch / local intervention / recovery).
	reqProc int  // local processor index, -1 if none
	home    int  // home station of the line (for re-issues and recovery)
	upgdAck bool // grant without data (requester holds a valid copy)

	// Remote fetch completion tracking.
	needInval       bool
	dataSeen        bool
	ackSeen         bool
	invalSeen       bool
	granted         bool
	dataInvalidated bool // a foreign invalidation killed our copy mid-upgrade
	expectInvalID   uint64
	data            uint64
	retryAt         int64 // when > 0, re-issue retryType at this cycle
	retryType       msg.Type
	retryIsTimeout  bool // the scheduled re-issue recovers a lost request
	nakStreak       int  // consecutive NAKs for the exponential back-off

	// Network intervention service / recovery.
	netTxnID   uint64
	reqStation int
	ex         bool
	pending    int // outstanding bus intervention responses (broadcast)
	wbSeen     bool
	wbData     uint64
}

// entry is one NC line: tag, state, local processor mask and data. It is
// packed to 32 bytes (pinned by TestEntrySize) so a tag-store page covers
// 256 lines: home and broughtBy are as narrow as topo.Geometry.Validate's
// bounds allow (at most 256 stations, 16 processors per station).
type entry struct {
	line uint64
	data uint64
	txn  *txn

	procs     uint16
	home      int16 // home station of the line
	broughtBy int8  // processor whose miss allocated the entry (hit classification)
	state     memory.DirState
	valid     bool
	locked    bool
}

// noEntries is the page every never-allocated region of every NC reads,
// all NotIn, and the page table every never-allocated NC reads: shared
// process-wide, never written (see sim.Paged).
var noEntries sim.Zero[entry]

// Stats is the NC's monitoring counters and, summed over stations field by
// field, the NC section of core.Results (Figures 15 and 16, Table 3): a
// counter added here is reported with no other edit. The json:"-" fields
// were never part of that section's JSON and stay out of it, so every
// recorded Results digest holds: NetNAKRetries feeds the stuck report and
// TimeoutReissues is reported under Results.Fault.
type Stats struct {
	Requests        int64 // non-retry processor requests
	HitsMigration   int64 // hits by a processor other than the fetcher
	HitsCaching     int64 // hits by the fetching processor (L2 victim reuse)
	LocalInterv     int64 // requests served by a local dirty copy
	Combined        int64 // requests masked out by a pending same-line fetch
	Conflicts       int64 // NAKs due to set conflicts with a locked entry
	RemoteFetches   int64 // requests that had to go to the home memory
	Retries         int64 // re-issued processor requests (excluded from rates)
	NetNAKRetries   int64 `json:"-"` // our remote requests NAK'ed by a locked home line
	TimeoutReissues int64 `json:"-"` // fetch requests re-issued after a loss timeout
	FalseRemotes    int64 // recoveries after ejection lost directory info
	SpecialWrReqs   int64 // optimistic upgrade misfires (§4.6)
	Prefetches      int64 `json:"-"` // background fetch hints (§3.1.4)
	Ejections       int64
	EjectWrBacks    int64 // LV ejections written back to home
	EjectLISilent   int64 // LI ejections dropping directory info (Table 3 source)
}

// HitRate is Figure 15's metric: requests satisfied locally (NC hits plus
// local interventions) over total non-retry requests.
func (s Stats) HitRate() float64 { return s.rate(s.HitsMigration + s.HitsCaching + s.LocalInterv) }

// MigrationRate and CachingRate decompose the hit rate (Figure 15).
func (s Stats) MigrationRate() float64 { return s.rate(s.HitsMigration) }

// CachingRate is the caching-effect share of the hit rate.
func (s Stats) CachingRate() float64 { return s.rate(s.HitsCaching + s.LocalInterv) }

// CombiningRate is Figure 16's metric: concurrent same-line requests
// masked out by a pending fetch, relative to all non-retry requests.
func (s Stats) CombiningRate() float64 { return s.rate(s.Combined) }

// FalseRemoteRate is Table 3's metric: the fraction of local requests to
// the NC that caused a false remote request to the home memory.
func (s Stats) FalseRemoteRate() float64 { return s.rate(s.FalseRemotes) }

// rate divides n by the non-retry request count, 0 when there were none.
func (s Stats) rate(n int64) float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(n) / float64(s.Requests)
}

// Module is one station's network cache: a bus port (FIFOs, occupancy,
// Fault, Tr, Msgs, Station) in front of the tag store.
type Module struct {
	bus.Port

	g topo.Geometry
	p *sim.Params // the machine's, shared by every component; read-only

	// entries is the direct-mapped tag store, paged and allocated on first
	// allocate: an NC that caches nothing costs nothing for it.
	entries sim.Paged[entry]
	// sideTxns holds intervention/recovery work for lines with no entry
	// (the NC must still serve interventions after ejecting a line); nil
	// until the first.
	sideTxns map[uint64]*txn

	// retryLines tracks locked lines with a scheduled retry.
	retryLines []uint64

	// txns recycles per-transaction state: entry txns die when the entry
	// unlocks (clearTxn), side-table txns when their line leaves sideTxns
	// (dropSide), so steady state allocates none. Callers overwrite a fresh
	// record wholesale (`*t = txn{...}`).
	txns msg.Pool[txn]

	// Backoff times this NC's re-issues after a NetNAK. Its jitter is
	// drawn only while handling a NetNAK (a real-work event every cycle
	// loop executes identically), never from idle ticks; the model checker
	// installs its Choice.
	Backoff sim.Backoff

	// FetchTimeout, when > 0, re-issues an unanswered fetch request after
	// that many cycles — the sender-side recovery for request packets the
	// injector drops in the network.
	FetchTimeout int64

	Stats Stats
	Hist  monitor.Table // coherence histogram (§3.3.3), laid out by memory.NCHist
}

// Init builds the network cache for a station in place, in a zero Module;
// p is read, never written.
func (n *Module) Init(g topo.Geometry, p *sim.Params, station int) {
	n.g, n.p = g, p
	n.Addr(g, station, g.ModNC())
	n.entries = sim.NewPaged(p.NCLines, p.LineSize, &noEntries)
	n.Hist = memory.NCHist.Table("netcache", station)
	// Seed unconditionally: the zero xorshift state would be degenerate.
	// The constant tags the stream so NC jitter never collides with the
	// per-CPU streams derived from the same RetryJitterSeed.
	n.Backoff = sim.NewBackoff(p.RetryJitterSeed ^ 0x6e65746361636865 ^
		(0x9e3779b97f4a7c15 * (uint64(station) + 1)))
}

// Idle reports whether the module has no queued, in-flight or pending work.
func (n *Module) Idle() bool {
	return n.Port.Idle() && len(n.sideTxns) == 0 && len(n.retryLines) == 0
}

// clearTxn unlocks the entry and frees its transaction — the single death
// point for entry transactions (txnRecover conversions reuse theirs in
// place instead).
func (n *Module) clearTxn(e *entry) {
	t := e.txn
	e.locked, e.txn = false, nil
	n.txns.Put(t)
}

// dropSide removes the line's side-table transaction and frees it.
func (n *Module) dropSide(line uint64) {
	t := n.sideTxns[line]
	delete(n.sideTxns, line)
	n.txns.Put(t)
}

// lookup returns the entry for line, or nil when NotIn. It never
// allocates: a slot nothing was allocated in reads as invalid.
func (n *Module) lookup(line uint64) *entry {
	e := n.entries.Get(line)
	if e.valid && e.line == line {
		return e
	}
	return nil
}

// TxnInfo describes the pending transaction on a line (diagnostics).
func (n *Module) TxnInfo(line uint64) string {
	e := n.lookup(line)
	if e == nil || e.txn == nil {
		if t := n.sideTxns[line]; t != nil {
			return fmt.Sprintf("side{kind=%v orig=%v pending=%d wb=%v data=%v}",
				t.kind, t.origType, t.pending, t.wbSeen, t.dataSeen)
		}
		return "none"
	}
	t := e.txn
	return fmt.Sprintf("txn{kind=%v orig=%v req=%d pending=%d data=%v ack=%v inval=%v need=%v granted=%v retryAt=%d wb=%v}",
		t.kind, t.origType, t.reqProc, t.pending, t.dataSeen, t.ackSeen, t.invalSeen, t.needInval, t.granted, t.retryAt, t.wbSeen)
}

// Peek exposes NC state for tests and the invariant checker. ok is false
// when the line is NotIn.
func (n *Module) Peek(line uint64) (state memory.DirState, locked bool, procs uint16, data uint64, ok bool) {
	e := n.lookup(line)
	if e == nil {
		return 0, false, 0, 0, false
	}
	return e.state, e.locked, e.procs, e.data, true
}

// histCol is the line's coherence-histogram column: NotIn (0) for a nil
// entry.
func (e *entry) histCol() int {
	if e == nil {
		return 0
	}
	return 1 + memory.HistCol(e.state, e.locked)
}

// NextWork reports the earliest cycle at or after now at which Tick has
// work: the earliest scheduled NAK retry or the port's next access (see
// bus.Port.ReadyAt). A stale retryLines entry (its transaction already
// completed) forces now so Tick prunes it exactly when the naive loop
// would, keeping Idle() and drain semantics identical.
func (n *Module) NextWork(now int64) int64 {
	wake := sim.Never
	for _, line := range n.retryLines {
		e := n.lookup(line)
		if e == nil || !e.locked || e.txn == nil || e.txn.retryAt == 0 {
			wake = now // stale entry: fireRetries must drop it this cycle
			break
		}
		wake = min(wake, e.txn.retryAt)
	}
	return n.ReadyAt(now, wake)
}

// Tick fires due retries and advances the tag-store pipeline one cycle
// unless an injected outage freezes both.
func (n *Module) Tick(now int64) {
	if n.Fault.Stalled(now) {
		return
	}
	n.fireRetries(now)
	n.Step(now, n.handle, n.cost)
}

// cost is the SRAM access time of a message of type t, plus a DRAM access
// when it carries data or reads the line for a local processor.
func (n *Module) cost(t msg.Type) int {
	if t.CarriesData() || t == msg.LocalRead || t == msg.LocalReadEx {
		return n.p.NCDirCycles + n.p.NCDRAMCycles
	}
	return n.p.NCDirCycles
}

func (n *Module) fireRetries(now int64) {
	if len(n.retryLines) == 0 {
		return
	}
	// sendHome re-arms the loss timeout through armRetry, which appends to
	// n.retryLines; detach the slice first so the in-place filter below
	// never races the appends, then merge the re-armed lines back in.
	old := n.retryLines
	n.retryLines = nil
	kept := old[:0]
	for _, line := range old {
		e := n.lookup(line)
		if e == nil || !e.locked || e.txn == nil || e.txn.retryAt == 0 {
			continue
		}
		if e.txn.retryAt > now {
			kept = append(kept, line)
			continue
		}
		t := e.txn
		t.retryAt = 0
		if t.retryIsTimeout {
			t.retryIsTimeout = false
			n.Stats.TimeoutReissues++
		} else {
			n.Stats.NetNAKRetries++
		}
		n.sendHome(now, t.retryType, line, t)
	}
	n.retryLines = append(kept, n.retryLines...)
}

// armRetry schedules a re-issue of the txn's request at cycle at. The line
// enters retryLines only when no re-issue was armed yet, so a NetNAK
// overwriting a pending loss timeout (or vice versa) never duplicates the
// entry.
func (n *Module) armRetry(line uint64, t *txn, at int64, timeout bool) {
	if t.retryAt == 0 {
		n.retryLines = append(n.retryLines, line)
	}
	t.retryAt = at
	t.retryIsTimeout = timeout
}

// ---- output helpers ----

// sendHome (re-)issues a request for a locked fetch txn. When a loss
// timeout is configured, every outbound fetch request arms (or re-arms) a
// re-issue: if the request is dropped in the network, the timeout fires
// and the request goes out again; if an answer arrives first, the handler
// cancels the timeout.
func (n *Module) sendHome(now int64, t msg.Type, line uint64, tx *txn) {
	m := n.ToStation(t, line, tx.home, tx.home)
	m.Requester = tx.reqProc
	m.ReqStation = n.Station
	// Arm only for the types the injector can drop: a spurious re-issue
	// of an undroppable request (RemUpgd, SpecialWrReq) after a merely
	// slow response has no recovery analysis behind it, and those types
	// can never be lost.
	if n.FetchTimeout > 0 && tx.kind == txnFetch && t.Droppable() {
		tx.retryType = t
		n.armRetry(line, tx, now+n.FetchTimeout, true)
	}
}

// ---- allocation & ejection ----

// allocate claims the slot for line, ejecting a victim if necessary per
// the rules of §4.6: LV victims (the only valid data on the station) are
// written back to their home; LI victims are dropped silently, losing the
// station-level directory — the source of false remote requests; GV/GI
// victims are dropped. Returns nil when the slot is held by a locked entry.
func (n *Module) allocate(line uint64, home int) *entry {
	e := n.entries.Touch(line)
	if e.valid && e.line == line {
		return e
	}
	if e.valid {
		if e.locked {
			return nil
		}
		n.evict(e)
	}
	*e = entry{valid: true, line: line, home: int16(home), state: GI, broughtBy: -1}
	return e
}

func (n *Module) evict(e *entry) {
	n.Stats.Ejections++
	switch e.state {
	case LV:
		// The NC holds the only valid data in the system: it must travel
		// home. Local processors may retain shared copies (no inclusion).
		n.Stats.EjectWrBacks++
		n.ToStation(msg.RemWrBack, e.line, int(e.home), int(e.home)).Data = e.data
	case LI:
		// The dirty copy lives in a local secondary cache; dropping the
		// entry silently loses the directory information and later causes
		// a false remote request (§4.6, Table 3).
		n.Stats.EjectLISilent++
	}
	e.valid = false
}
