package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"numachine/internal/proc"
	"numachine/internal/topo"
)

// faultSchedule is one (seed, spec) pair for the soak and the faulted
// cells of the equivalence matrix.
type faultSchedule struct {
	name string
	seed uint64
	spec string
}

// faultSchedules covers each fault class alone plus combined schedules.
// Drop/dup rates are high enough that small scenarios reliably inject
// several faults; timeouts are shortened so loss recovery does not
// dominate the runtime.
func faultSchedules() []faultSchedule {
	return []faultSchedule{
		{"drop", 11, "drop=0.05,timeout=2000"},
		{"dup", 12, "dup=0.05"},
		{"drop-dup", 13, "drop=0.02,dup=0.02,timeout=2000"},
		{"freeze-mem", 14, "freeze-mem=3000:250"},
		{"freeze-nc-degrade", 15, "freeze-nc=4000:200,degrade-ring=5000:250"},
		{"everything", 16, "drop=0.02,dup=0.02,freeze-mem=6000:150,freeze-nc=7000:150,degrade-ring=8000:200,timeout=2000"},
	}
}

// faultScenarios picks the equivalence scenarios run under faults:
// hierarchical mixed traffic (remote fetches to drop, invalidations to
// duplicate) and the kill/lock scenario (special functions whose NAKs
// take the interrupt-wait recovery path).
func faultScenarios(t *testing.T) []equivScenario {
	return []equivScenario{
		equivScenarioNamed(t, "mixed/g2x2x2-opts1-s12"),
		equivScenarioNamed(t, "kill-and-locks"),
	}
}

// TestFaultSoak is the robustness acceptance harness: every fault
// schedule crossed with the fault scenarios must run to full completion
// (Run returns only when every program finishes; the watchdog panics
// otherwise) with a clean coherence check, and the soak as a whole must
// actually have injected faults of every class it claims to.
func TestFaultSoak(t *testing.T) {
	var total FaultResults
	for _, fs := range faultSchedules() {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			for _, sc := range faultScenarios(t) {
				m, _, _ := runCase(t, sc, equivRun{loop: "scheduled", fast: true, fault: &fs})
				r := m.Results()
				total.Drops += r.Fault.Drops
				total.Dups += r.Fault.Dups
				total.TimeoutReissues += r.Fault.TimeoutReissues
				total.RingFaultStalls += r.Fault.RingFaultStalls
				total.MemDownCycles += r.Fault.MemDownCycles
				total.NCDownCycles += r.Fault.NCDownCycles
			}
		})
	}
	if total.Drops == 0 || total.Dups == 0 || total.RingFaultStalls == 0 ||
		total.MemDownCycles == 0 || total.NCDownCycles == 0 {
		t.Errorf("soak injected no faults of some class: %+v", total)
	}
	if total.Drops > 0 && total.TimeoutReissues == 0 {
		t.Errorf("packets were dropped but no fetch was re-issued by timeout: %+v", total)
	}
}

// TestZeroFaultSpecIsInert pins the zero-fault contract: a config whose
// spec parses to the zero schedule (explicit zero rates) builds the same
// machine as the empty spec — no injector, no new code paths — so traces
// and results are byte-identical.
func TestZeroFaultSpecIsInert(t *testing.T) {
	sc := equivScenarioNamed(t, "mixed/g2x2x2-opts1-s12")
	run := func(spec string) (*Machine, int64, []byte) {
		// The seed must be irrelevant for a zero spec.
		return runCase(t, sc, equivRun{loop: "scheduled", fast: true, traced: true,
			fault: &faultSchedule{seed: 99, spec: spec}})
	}
	ma, cyclesA, trA := run("")
	mb, cyclesB, trB := run("drop=0,dup=0")
	compareRuns(t, "empty-spec", "zero-spec", ma, mb, cyclesA, cyclesB)
	if !bytes.Equal(trA, trB) {
		t.Errorf("zero spec perturbed the trace: %s", firstTraceDiff(trA, trB))
	}
	r := ma.Results()
	if r.Fault != (FaultResults{}) {
		t.Errorf("fault-free run reports fault effects: %+v", r.Fault)
	}
}

// TestStuckTransactionReport injects a permanent memory wedge and checks
// that the watchdog abort carries the structured stuck-transaction
// report: the stuck processors with state names and retry counts, and
// the wedged component's diagnostics.
func TestStuckTransactionReport(t *testing.T) {
	for _, loop := range equivLoops {
		loop := loop
		t.Run(loop, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Geom = topo.Geometry{ProcsPerStation: 1, StationsPerRing: 2, Rings: 1}
			cfg.Params.L2Lines = 64
			cfg.Params.DeadlockCycles = 25_000
			cfg.FaultSpec = "wedge-mem=0:2000"
			cfg.FaultSeed = 1
			m, err := newLoop(cfg, loop)
			if err != nil {
				t.Fatal(err)
			}
			// Two pages of lines: round-robin placement homes one page on
			// each station, so some references need the wedged memory no
			// matter where the heap starts.
			addr := m.AllocLines(128)
			m.Load([]proc.Program{
				func(c *proc.Ctx) {
					for i := 0; i < 100_000; i++ {
						c.Write(addr+uint64(i%128)*64, uint64(i))
					}
				},
				func(c *proc.Ctx) {
					for i := 0; i < 100_000; i++ {
						c.Read(addr + uint64(i%128)*64)
					}
				},
			})
			msg := func() (panicMsg string) {
				defer func() { panicMsg, _ = recover().(string) }()
				m.Run()
				return ""
			}()
			if msg == "" {
				t.Fatal("wedged memory did not trip the watchdog")
			}
			for _, want := range []string{
				"no progress",
				"stuck-transaction report at cycle",
				"state=",
				"retries=",
				"wedged=true",
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("report lacks %q:\n%s", want, msg)
				}
			}
		})
	}
}

// TestStuckTransactionReportOneBlockPerLine wedges the home of one line
// that two CPUs on different stations keep writing: the report describes
// the line once, naming both waiters, with its home entry and, once, the
// NC of the remote waiter's station (here also the owner the home names).
func TestStuckTransactionReportOneBlockPerLine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 1}
	cfg.Params.L2Lines = 64
	cfg.Params.DeadlockCycles = 25_000
	cfg.FaultSpec = "wedge-mem=0:2000"
	cfg.FaultSeed = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two pages of lines, one homed on each station: take station 0's.
	addr := m.AllocLines(128)
	if m.HomeOf(addr) != 0 {
		addr += 64 * uint64(cfg.Params.LineSize)
	}
	if m.HomeOf(addr) != 0 {
		t.Fatal("no line homed on the wedged station")
	}
	write := func(c *proc.Ctx) {
		for i := 0; i < 100_000; i++ {
			c.Write(addr, uint64(i))
		}
	}
	idle := func(c *proc.Ctx) {}
	m.Load([]proc.Program{write, idle, write, idle}) // cpus 0 and 2: stations 0 and 1
	report := func() (panicMsg string) {
		defer func() { panicMsg, _ = recover().(string) }()
		m.Run()
		return ""
	}()
	if report == "" {
		t.Fatal("wedged memory did not trip the watchdog")
	}
	heading := fmt.Sprintf("line %#x: waiting cpus [0 2]\n  mem[0]: ", addr)
	if n := strings.Count(report, fmt.Sprintf("line %#x:", addr)); n != 1 || !strings.Contains(report, heading) {
		t.Errorf("want one %q block, found %d:\n%s", heading, n, report)
	}
	if n := strings.Count(report, "  nc[1]"); n != 1 {
		t.Errorf("the remote waiter's NC is described %d times, want once:\n%s", n, report)
	}
}
