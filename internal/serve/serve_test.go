package serve

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/topo"
)

// testConfig is a small machine the serve scenarios run fast on. It has
// four stations, fewer than the pooled executor needs before it dispatches
// a cycle, so every run here is inline; internal/core's
// TestServeEquivalence and TestServeResilienceEquivalence cover the pool.
func testConfig(fastHits bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	cfg.Params.L2Lines = 64
	cfg.Params.NCLines = 128
	cfg.Params.DeadlockCycles = 2_000_000
	cfg.FastHits = fastHits
	return cfg
}

// runServe executes one scenario and returns the rendered report plus the
// full machine results.
func runServe(t *testing.T, cfg core.Config, specStr string, seed uint64) (string, core.Results) {
	t.Helper()
	sp, err := ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(m, sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Run()
	r := m.Results()
	if r.Serve == nil {
		t.Fatal("Results.Serve missing after a serve run")
	}
	var b bytes.Buffer
	r.Serve.WriteReport(&b)
	return b.String(), r
}

// serveSpecs are the scenario shapes the suite runs: both disciplines,
// every placement policy, open and closed arrivals. The cross-loop
// equivalence of each is TestServeEquivalence in internal/core.
var serveSpecs = []string{
	"open=3,duration=20000,procs=8,tenants=3,span=256,qcap=8,discipline=fifo,policy=static," +
		"class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0",
	"open=3,duration=20000,procs=8,tenants=3,span=256,qcap=8,discipline=edf,policy=locality," +
		"class=interactive:3:8:20:25:4000,class=batch:1:48:60:50:0",
	"closed=6,requests=60,procs=8,tenants=2,span=256,depth=2,discipline=fifo,policy=least-load," +
		"class=mix:1:24:30:40:8000",
}

// TestServeSeedSensitivity guards against a generator wired to a constant
// stream: different seeds must yield different arrival patterns.
func TestServeSeedSensitivity(t *testing.T) {
	a, _ := runServe(t, testConfig(true), serveSpecs[0], 1)
	b, _ := runServe(t, testConfig(true), serveSpecs[0], 2)
	if a == b {
		t.Error("seeds 1 and 2 produced identical reports; generator ignores the seed")
	}
}

// TestServeClosedLoopCompletes checks the closed-loop window: exactly
// Requests requests are generated and all of them complete (closed loops
// cannot drop — arrivals replace completions, bounded by concurrency).
func TestServeClosedLoopCompletes(t *testing.T) {
	_, res := runServe(t, testConfig(true), serveSpecs[2], 7)
	s := res.Serve
	if s.Total.Arrived != 60 || s.Total.Completed != 60 || s.Total.Dropped != 0 {
		t.Errorf("closed loop: arrived=%d completed=%d dropped=%d, want 60/60/0",
			s.Total.Arrived, s.Total.Completed, s.Total.Dropped)
	}
	var perClass, perTenant int64
	for _, g := range s.Classes {
		perClass += g.Completed
	}
	for _, g := range s.Tenants {
		perTenant += g.Completed
	}
	if perClass != 60 || perTenant != 60 {
		t.Errorf("breakdowns do not sum to the total: classes=%d tenants=%d", perClass, perTenant)
	}
	if s.Total.Latency.Count() != 60 || s.Total.Latency.Percentile(0.5) <= 0 {
		t.Errorf("latency histogram malformed: n=%d p50=%d",
			s.Total.Latency.Count(), s.Total.Latency.Percentile(0.5))
	}
}

// TestServeAdmissionDrops forces a burst into a capacity-1 queue and
// expects drops accounted per tenant and class.
func TestServeAdmissionDrops(t *testing.T) {
	spec := "open=200,duration=4000,requests=120,procs=2,tenants=1,span=128,qcap=1,depth=1," +
		"class=slow:1:64:200:50:0"
	_, res := runServe(t, testConfig(true), spec, 3)
	s := res.Serve
	if s.Total.Dropped == 0 {
		t.Fatalf("no admission drops despite a saturating burst: %+v", s.Total)
	}
	if s.Total.Arrived != s.Total.Completed+s.Total.Dropped {
		t.Errorf("conservation violated: arrived=%d completed=%d dropped=%d",
			s.Total.Arrived, s.Total.Completed, s.Total.Dropped)
	}
	if s.Tenants[0].Dropped != s.Total.Dropped {
		t.Errorf("tenant drops %d != total drops %d", s.Tenants[0].Dropped, s.Total.Dropped)
	}
}

// TestServeSLAViolations: a deadline shorter than any possible service
// time must flag every completion as a violation; a generous one, none.
func TestServeSLAViolations(t *testing.T) {
	tight := "closed=4,requests=24,procs=4,tenants=2,span=128,class=c:1:32:50:25:10"
	_, res := runServe(t, testConfig(true), tight, 5)
	if s := res.Serve; s.Total.Violations != s.Total.Completed {
		t.Errorf("10-cycle deadline: %d violations of %d completions, want all",
			s.Total.Violations, s.Total.Completed)
	}
	loose := "closed=4,requests=24,procs=4,tenants=2,span=128,class=c:1:32:50:25:100000000"
	_, res = runServe(t, testConfig(true), loose, 5)
	if s := res.Serve; s.Total.Violations != 0 {
		t.Errorf("10^8-cycle deadline: %d violations, want 0", s.Total.Violations)
	}
}

// TestMailboxesStayBounded: the dispatcher drops each mailbox's consumed
// prefix at every collect, so a long run leaves no box holding more than
// Depth requests or a backing array grown past a few slots.
func TestMailboxesStayBounded(t *testing.T) {
	sp, err := ParseSpec("closed=8,requests=2000,procs=8,tenants=2,span=128,depth=2,class=c:1:4:10:25:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(m, sp, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Run()
	if got := m.Results().Serve.Total.Completed; got != 2000 {
		t.Fatalf("%d of 2000 requests completed", got)
	}
	for w, b := range ctl.boxes {
		if len(b.in) > sp.Depth || cap(b.in) > 8 {
			t.Errorf("box %d ends holding %d requests, %d consumed (depth %d), capacity %d",
				w, len(b.in), b.head, sp.Depth, cap(b.in))
		}
	}
}

// ---- dispatcher unit tests (no machine run) ----

func newIdleController(t *testing.T, specStr string) *Controller {
	t.Helper()
	sp, err := ParseSpec(specStr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(testConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(m, sp, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func enqueue(ctl *Controller, tenant int, seq, deadline int64) *request {
	r := &request{seq: seq, tenant: tenant, deadline: deadline}
	ctl.queues[tenant] = append(ctl.queues[tenant], r)
	return r
}

func TestDisciplineFIFO(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=2,discipline=fifo")
	enqueue(ctl, 0, 5, 100)
	enqueue(ctl, 1, 3, 900) // older, later deadline
	enqueue(ctl, 1, 7, 10)
	tenant, idx := ctl.pick(0)
	if tenant != 1 || idx != 0 {
		t.Errorf("FIFO picked tenant=%d idx=%d, want the oldest head (tenant=1 idx=0)", tenant, idx)
	}
}

func TestDisciplineEDF(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=2,discipline=edf")
	enqueue(ctl, 0, 1, 0) // deadline-free: parses as 0 here, stored explicitly
	ctl.queues[0][0].deadline = maxInt64
	enqueue(ctl, 1, 3, 900)
	enqueue(ctl, 1, 7, 10) // newest but tightest deadline, mid-queue
	tenant, idx := ctl.pick(0)
	if tenant != 1 || idx != 1 {
		t.Errorf("EDF picked tenant=%d idx=%d, want the tightest deadline (tenant=1 idx=1)", tenant, idx)
	}
	// Remove it; next pick is the 900-deadline request, then the free one.
	ctl.queues[1] = ctl.queues[1][:1]
	if tenant, idx = ctl.pick(0); tenant != 1 || idx != 0 {
		t.Errorf("EDF second pick tenant=%d idx=%d, want tenant=1 idx=0", tenant, idx)
	}
}

const maxInt64 = int64(^uint64(0) >> 1)

func TestPlacementStatic(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=1,policy=static,depth=1")
	r := &request{}
	var got []int
	for i := 0; i < 4; i++ {
		w := ctl.place(r, 0)
		ctl.boxes[w].load++
		got = append(got, w)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("static placement order %v, want %v", got, want)
	}
	if w := ctl.place(r, 0); w != -1 {
		t.Errorf("all workers at depth, place returned %d, want -1", w)
	}
}

func TestPlacementLocality(t *testing.T) {
	// 2 procs/station: workers 0,1 on station 0; 2,3 on station 1.
	// Tenants home round-robin over occupied stations: tenant1 -> station 1.
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=2,policy=locality,depth=2")
	r := &request{tenant: 1}
	if w := ctl.place(r, 0); w != 2 {
		t.Errorf("locality placed tenant 1 on worker %d, want 2 (home station)", w)
	}
	// Saturate the home station: falls back to the least-loaded elsewhere.
	ctl.boxes[2].load, ctl.boxes[3].load = 2, 2
	ctl.boxes[0].load = 1
	if w := ctl.place(r, 0); w != 1 {
		t.Errorf("locality fallback placed on worker %d, want 1 (least-loaded off-home)", w)
	}
}

func TestPlacementLeastLoad(t *testing.T) {
	ctl := newIdleController(t, "closed=1,requests=1,procs=4,tenants=1,policy=least-load,depth=3")
	ctl.boxes[0].load, ctl.boxes[1].load, ctl.boxes[2].load, ctl.boxes[3].load = 2, 1, 1, 3
	if w := ctl.place(&request{}, 0); w != 1 {
		t.Errorf("least-load placed on worker %d, want 1 (min load, lowest index)", w)
	}
}

// ---- spec tests ----

func TestParseSpecDefaults(t *testing.T) {
	sp, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	def, err := ParseSpec(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, def) {
		t.Errorf("empty spec != DefaultSpec:\n%+v\n%+v", sp, def)
	}
	if len(sp.Classes) != 2 || sp.Classes[0].Name != "interactive" {
		t.Errorf("default classes wrong: %+v", sp.Classes)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range append(serveSpecs, DefaultSpec) {
		sp, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("round trip of %q: %v", sp.String(), err)
		}
		if !reflect.DeepEqual(sp, again) {
			t.Errorf("spec not canonical:\n%+v\n%+v", sp, again)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"nonsense",
		"open=0",
		"open=2,closed=3,requests=5",
		"closed=3", // no requests
		"open=2",   // no duration or cap
		"open=2,duration=100,discipline=lifo",
		"open=2,duration=100,policy=random",
		"open=2,duration=100,class=bad:1:2",
		"open=2,duration=100,class=a:1:1:0:0:0,class=a:1:1:0:0:0",
		"open=2,duration=100,class=c:1:8:0:150:0",
	} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		} else if !strings.Contains(err.Error(), "serve:") {
			t.Errorf("ParseSpec(%q) error %q lacks the serve: prefix", s, err)
		}
	}
}
