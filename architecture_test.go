package numachine_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// An architecture rule names a shape of code that a past simplification
// deleted. Each rule searches a set of files for its pattern; any line that
// matches is a hit, and a hit means the deleted design came back. The
// patterns are ERE as grep -E reads them (Go's regexp accepts each as
// written).
type archRule struct {
	name string
	// pattern is the forbidden shape; fixed marks a literal string.
	pattern string
	fixed   bool
	// roots are the files and directories searched, relative to the
	// repository root; "." is the whole tree.
	roots []string
	// goOnly limits the search to .go files, noTests to non-test files
	// and testsOnly to test files.
	goOnly, noTests, testsOnly bool
	// skip lists directories whose files are not searched.
	skip []string
	// allow, when set, exempts the lines it matches.
	allow string
}

// archRules is the table of structural rules. Each comment says what the
// rule keeps out and why.
var archRules = []archRule{
	// One goroutine at a time touches the interconnect, the flow-control
	// credits and the packet reference counts (the pool shards the station
	// phase only), so these packages hold plain counters; an atomic here
	// means a second goroutine came back. The race steps of CI are what
	// guards the plain counters. The shard pool (internal/sim) hands a
	// round to its helpers on channels and waits on one sync.WaitGroup; an
	// atomic there means a hand-rolled barrier (a spin on an epoch and an
	// arrival count) came back.
	{name: "no atomics in the cycle loop or the interconnect",
		pattern: `"sync/atomic"`, fixed: true,
		roots: []string{"internal/core", "internal/ring", "internal/msg", "internal/sim"}},
	// The tag stores are direct-mapped (one store, sim.Paged) and the
	// inter-ring FIFOs unbounded: associativity, LRU state or a bounded IRI
	// buffer coming back means a second cache or a second ring path.
	{name: "no associativity, LRU or bounded IRI FIFO",
		pattern: `L2Assoc|IRIFIFO|lastUse`,
		roots:   []string{"."}, goOnly: true},
	// A component's stats struct is its Results section: plain int64
	// fields summed field by field (core.addCounters), so a counter is
	// declared once. monitor.Counter survives only as
	// Machine.FastForwarded's type, which bench/ reads; anywhere else it
	// means a counter that needs a copy line again.
	{name: "one definition per counter",
		pattern: `monitor\.Counter`, allow: `FastForwarded monitor\.Counter`,
		roots: []string{"."}, goOnly: true},
	// Production has one cycle body. The tick-everything reference order
	// the equivalence suites compare it against lives in
	// internal/core/oracle_test.go; a Config field, a flag or a loop name
	// for it anywhere else means a second production path came back.
	{name: "reference order stays test-only",
		pattern: `NaiveLoop|stepNaive|"naive"`,
		roots:   []string{"."}, goOnly: true, noTests: true},
	// The home directory serves all eight request types from one request
	// path (memory.Module.request); a per-request handler coming back
	// means a second copy of the locked-line NAK and of the owner
	// intervention.
	{name: "one request path in the home directory",
		pattern: `func \(m \*Module\) (localRead|localWrite|remRead|remReadEx|remUpgd|specialWr|kill)\(`,
		roots:   []string{"internal/memory"}},
	// Each directory finishes its transitions in one place: the home
	// through answer and settle behind one staleness guard, the netcache
	// through checkIntervDone, side-table services included. A per-reply
	// handler or a side-table-only finish coming back means a second copy
	// of a completion.
	{name: "one completion path in the home directory",
		pattern: `func \(m \*Module\) (xferDone|netIntervMiss)\(`,
		roots:   []string{"internal/memory"}},
	{name: "one completion path in the network cache",
		pattern: `finishNetServe(nil`, fixed: true,
		roots: []string{"internal/netcache"}},
	// The memory module and the network cache are one kind of bus
	// controller and share one implementation of it, bus.Port: its FIFOs,
	// its staged-message occupancy pipeline and its Send. A staged message,
	// a direct output push or a hand-filled pooled message in either
	// package means a second copy of that controller.
	{name: "one bus port for memory and the network cache",
		pattern: `staged|outQ\.Push|Msgs\.Get\(\)`,
		roots:   []string{"internal/memory", "internal/netcache"}, goOnly: true, noTests: true},
	// Every station bus module sends through one bus.Out: its output FIFO,
	// its message pool and the addressing builders the home and the NC
	// share. A pooled message filled by hand outside the bus, the ring and
	// msg, a message literal in either directory, or a message field no
	// receiver reads coming back means a second send side.
	{name: "one send side: pooled messages are filled in bus, ring and msg only",
		pattern: `Msgs\.Get\(`,
		roots:   []string{"."}, goOnly: true, noTests: true,
		skip: []string{"internal/bus", "internal/ring", "internal/msg"}},
	{name: "one send side: no message literal in the directories",
		pattern: `msg.Message{`, fixed: true,
		roots: []string{"internal/memory", "internal/netcache"}, goOnly: true, noTests: true},
	{name: "one send side: no unread message fields",
		pattern: `IssueCycle|HasData`,
		roots:   []string{"."}, goOnly: true},
	// core.New allocates each kind of component once for the whole machine
	// and builds every component in place with its Init, and all
	// components read the machine's one sim.Params through a pointer; the
	// components' own tests build a zero value and call Init the same way.
	// A standalone constructor in a component package (or a call to one in
	// core), or a component holding its own copy of the parameters, brings
	// back one allocation (and one 208-byte copy) per component, and a
	// second way to wire one.
	{name: "components are built in place",
		pattern: `\b(proc|bus|memory|netcache)\.New\(|\bring\.NewStationRI\(|^func New\w*\(.*\) \*(CPU|Bus|Module|StationRI|IRI|Ring)\b`,
		roots:   []string{"internal/core", "internal/proc", "internal/bus", "internal/memory", "internal/netcache", "internal/ring"},
		goOnly:  true, noTests: true},
	{name: "components share the machine's parameters",
		pattern: `^\s+(\w+(, \w+)*\s+)?sim\.Params\s*(//.*)?$`,
		roots:   []string{"internal/proc", "internal/bus", "internal/memory", "internal/netcache", "internal/ring"},
		goOnly:  true, noTests: true},
	// A bus tick re-arms only the modules its transfer reached (the set
	// Bus.Tick returns); re-arming every live CPU of the station (one with
	// a runner) brings back the polls that find no work.
	{name: "bus marks follow its deliveries",
		pattern: `(liveCPU\[[a-z]+\]|runners\[[a-z]+\] != nil) && m\.pollCPU\[[a-z]+\] > now\+1`,
		roots:   []string{"internal/core/cycle.go"}},
	// A ring holds its members concretely (its stations' RIs, then the
	// IRI's local side; the central ring, every IRI's central side), and
	// every interconnect mark is the receiver's own wake. A member
	// interface, the IRI's ports with their always-false InputFull, a
	// pending flag or the reassembly maps coming back means ring polls
	// that find no work again.
	{name: "ring members are concrete",
		pattern: `type Node interface|localPort|centralPort|hasWork|OutPending|CentralPending|DownPending|firstSeen`,
		roots:   []string{"internal/ring", "internal/core"}, goOnly: true, noTests: true},
	// Every record dies into the pool that built it: a ring original goes
	// home to its SrcStation's message pool, and ring packets are values in
	// slots and FIFOs with no pool at all. A packet pool or the free-list
	// leveling coming back means records die away from home again and
	// some free list drains while another grows.
	{name: "records go home",
		pattern: `Rebalance|rebalancePools|rebalanceEvery|pktPools|PacketPool|Pool\[msg\.Packet\]`,
		roots:   []string{"."}, goOnly: true, noTests: true, skip: []string{"bench"}},
	// Every poll-cache entry is its component's own NextWork, and a barrier
	// release is the waiting CPU's own wake (its release cycle, set by the
	// last arrival). A separate release list with its pre-phase, or a gate
	// block that asks NextWork(now) into a local before it ticks, brings
	// back the blind marks and the polls that find no work.
	{name: "barrier releases are CPU wakes",
		pattern: `fireBarriers|barrierRelease|barrier\.releases`,
		roots:   []string{"internal/core"}, goOnly: true, noTests: true},
	// The fast-hit machine-quiet scan reads other stations, which only a
	// pool round makes unsafe (parPhase). Keying it on the pool's existence
	// takes the tier from every inline cycle of the pooled executor too.
	{name: "the machine-quiet tier is off only inside a pool round",
		pattern: `m\.pool`,
		roots:   []string{"internal/core/fasthits.go"}},
	{name: "no pre-tick poll in a gate block",
		pattern: `^\s*(if )?\w+ :?= .*\.NextWork\(now\)`,
		roots:   []string{"internal/core/cycle.go"}},
	// The front-end hit fast path rests on two legs: alternation (the
	// iter.Pull switch, which the race steps check) and the delivery
	// horizon (core.hitHorizonFor, backed by CPU.assertHitWindow). A
	// coherence epoch coming back means a third check that no run can trip.
	{name: "the fast path has two legs",
		pattern: `[Ee]poch`,
		roots:   []string{"internal/proc", "internal/core"}, goOnly: true, noTests: true},
	// A reference's consecutive NAKs are bounded by the model checker's
	// per-cycle budget (mcheck.Spec) alone. A machine parameter for it
	// coming back means a second, off-by-default budget in the cycle loop.
	{name: "one retry budget",
		pattern: `MaxRetries`,
		roots:   []string{"internal/sim", "internal/core"}, goOnly: true, noTests: true},
	// Every serving request opens a job, and every copy runs the one
	// preemptible traversal (a zero KillEvery never preempts). A nil-job
	// branch or the non-preemptible traversal coming back means a second,
	// pre-resilience request path beside the resilient one.
	{name: "one request path in the serving controller",
		pattern: `job [!=]= nil|RunRequest\(`,
		roots:   []string{"internal/serve", "internal/workloads"}, goOnly: true, noTests: true},
	// Every cycle-loop axis of internal/core's tests ranges over
	// equivLoops (or its executors, equivLoops[1:]), and only newLoop
	// reads the pooled executor's name. A loop list spelled again leaves a
	// suite behind when an executor is added or retired.
	{name: "the loop axis is spelled once",
		pattern: `"parallel"`, fixed: true,
		roots: []string{"internal/core"}, testsOnly: true,
		allow: `^var equivLoops = |^\tif loop == "parallel" \{$`},
	// A trace file is written by one method, trace.Tracer.WriteChromeFile:
	// a temp file and an atomic rename. A WriteChrome call outside
	// internal/trace means a second file writer, one that can leave a torn
	// file behind.
	{name: "one trace writer",
		pattern: `WriteChrome(`, fixed: true,
		roots: []string{"."}, goOnly: true, noTests: true, skip: []string{"internal/trace"}},
	// Machine.Step runs the machine's one invariant loop (checkInvariants): the gate audit and the coherence check on
	// every entry into quiescence. Quiescence tracking outside internal/core
	// means a driver, the model checker say, runs a second copy of it.
	{name: "one invariant loop",
		pattern: `wasQuiesced`,
		roots:   []string{"."}, goOnly: true, skip: []string{"internal/core"}},
	// The home memory and the network cache lay out and record their
	// coherence histograms through one type (memory.CoherenceHist), whose
	// rows come from one ordered list of message types per directory kind.
	// A type-to-row switch coming back means a second histogram whose rows
	// can drift from their names.
	{name: "one coherence histogram",
		pattern: `func histRow`, fixed: true,
		roots: []string{"."}, goOnly: true},
	// The run loop's sampler, watchdog and driver are one type
	// (core.serialPoint), and the quiescence fast-forward clamps to the
	// watchdog and the driver through one rule (serialPoint.clamp). A
	// per-point schedule field coming back means a second hand-written
	// clamp, one that can drift from the first and let a jump pass a check.
	{name: "one fast-forward clamp",
		pattern: `watchdogAt|driveAt|sampleAt|onDrive|onSample`,
		roots:   []string{"internal/core"}, goOnly: true, noTests: true},
	// A program reads the cycle through one probe, Ctx.Cycle, which always
	// hands off to the back end. A forced-handshake twin coming back means
	// two probes again, one of which answers from the fast path's run-ahead
	// window, for a driver of the serving layer's mailboxes to pick wrong.
	{name: "one cycle probe",
		pattern: `func \(c \*Ctx\) Sync|\.Sync\(\)`,
		roots:   []string{"."}, goOnly: true, noTests: true},
	// Every requester that re-issues after a NAK times it with one type,
	// sim.Backoff (jitter stream plus the model checker's Choice). A
	// per-requester hook or delay method coming back means a second copy
	// of the back-off for a fairness change to miss.
	{name: "one NAK back-off",
		pattern: `RetryChoice|retryDelay`,
		roots:   []string{"internal/proc", "internal/netcache", "internal/mcheck"}, goOnly: true, noTests: true},
	// The machine advances through one method, Machine.Step, which
	// fast-forwards over quiescent cycles: Run, drain and the model checker
	// all call it. A second stepping method (a non-jumping public Step
	// beside a private run-loop step, say) means a driver that walks idle
	// cycles one at a time and a second copy of the invariant loop's call.
	{name: "the machine advances one way",
		pattern: `^func \(m \*Machine\) (\w*[sS]tep\w*|[dD]rain)\(`,
		roots:   []string{"internal/core"}, goOnly: true, noTests: true,
		allow: `^func \(m \*Machine\) (Step|stepGated|drain)\(\) `},
	// A page is homed round robin unless core.AllocAt placed it, and
	// AllocAt runs before Run, so HomeOf only reads during a run under both
	// executors. A pageHome write anywhere else (a first-touch resolver in
	// a CPU hook, say) means a home decided by a station tick and read by
	// other stations in the same cycle, outside the ring hierarchy and the
	// barrier controller.
	{name: "page homes are fixed before a run",
		pattern: `pageHome\[[^]]*\] *=[^=]|delete\([^,]*pageHome`,
		roots:   []string{"internal/core"}, goOnly: true, noTests: true,
		allow: `^\t\tm\.pageHome\[pg\] = station$`},
	// The paper's experiments are reported by cmd/experiments and checked
	// by assertions in tier-1 tests; bench/ alone reports the simulator's
	// own speed. A test that reports a metric or prints to stdout outside
	// bench/ means a second reporting path, one that no check reads.
	{name: "one reporting path for the paper's experiments",
		pattern: `ReportMetric\(|os\.Stdout`,
		roots:   []string{"."}, goOnly: true, testsOnly: true, skip: []string{"bench"}},
}

// archRuleFile is this file: it spells every pattern, so no rule searches
// it.
const archRuleFile = "architecture_test.go"

// TestArchitecture checks every rule of archRules against the tree, then
// the two structural properties that are not a pattern: the tag-store read
// path stays inlinable, and the examples print what they printed.
func TestArchitecture(t *testing.T) {
	for _, r := range archRules {
		hits, err := r.search()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if len(hits) > 0 {
			t.Errorf("architecture rule %q broken by %d line(s):\n%s", r.name, len(hits), strings.Join(hits, "\n"))
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go tool is not on PATH: %v", err)
	}

	// The tag-store read path (cache.Probe and the NC's lookup, both
	// through sim.Paged's line→slot map) sits under every reference and
	// every NC message; it must stay inside the inliner's budget. The Go
	// version is pinned by go.mod, so the budget is too.
	out, err := exec.Command(goTool, "build", "-gcflags=-m", "./internal/cache", "./internal/netcache").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range []string{"(*Cache).Probe", "(*Module).lookup"} {
		if !bytes.Contains(out, []byte("can inline "+fn)) {
			t.Errorf("tag-store read path: %s is no longer inlinable", fn)
		}
	}

	// The three small examples are deterministic and each runs in well
	// under a second; their outputs are pinned byte for byte (the histogram
	// titles of examples/monitoring included).
	for _, e := range []string{"quickstart", "monitoring", "coherence"} {
		got, err := exec.Command(goTool, "run", "./examples/"+e).Output()
		if err != nil {
			t.Fatalf("go run ./examples/%s: %v", e, err)
		}
		want, err := os.ReadFile(filepath.Join("examples", e, "want.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("examples/%s printed something other than its want.txt", e)
		}
	}
}

// search returns every line the rule forbids, as path:line: text.
func (r archRule) search() ([]string, error) {
	pattern := r.pattern
	if r.fixed {
		pattern = regexp.QuoteMeta(pattern)
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	var allow *regexp.Regexp
	if r.allow != "" {
		allow = regexp.MustCompile(r.allow)
	}
	var hits []string
	visit := func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			for _, p := range r.skip {
				if path == p {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if path == archRuleFile ||
			r.goOnly && !strings.HasSuffix(path, ".go") ||
			r.noTests && strings.HasSuffix(path, "_test.go") ||
			r.testsOnly && !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for n := 1; sc.Scan(); n++ {
			if line := sc.Text(); re.MatchString(line) && (allow == nil || !allow.MatchString(line)) {
				hits = append(hits, fmt.Sprintf("%s:%d: %s", path, n, strings.TrimSpace(line)))
			}
		}
		return sc.Err()
	}
	for _, root := range r.roots {
		if err := filepath.WalkDir(root, visit); err != nil {
			return nil, err
		}
	}
	return hits, nil
}
