package serve

import (
	"testing"

	"numachine/internal/core"
)

// TestServeChaosSoak is the chaos half of the soak pass: a long
// closed-loop resilient scenario under injected fault schedules, run with
// the full mechanism set live (kills, retries, hedges, breaker, shedding)
// and the front-end hit fast path on, cross-checked byte-for-byte with it
// off. This is the configuration CI runs under -race: dispatcher-side
// cancellation flags and worker-side killed flags cross the mailbox
// protocol constantly here, so any hole in the Sync-pinned alternation
// contract shows up as a race or a divergence. Skipped under -short.
func TestServeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak: long faulted closed-loop runs")
	}
	const spec = "closed=10,requests=240,procs=8,tenants=4,span=512,qcap=12," +
		"discipline=edf,policy=least-load," +
		"class=urgent:2:6:10:25:1200,class=interactive:3:12:20:25:4000,class=batch:1:48:60:50:0," +
		"kill=2,retries=2,backoff=200:1600,retry-budget=48,hedge=1500,breaker=180:2500,shed=on"
	schedules := []struct {
		name string
		spec string
		seed uint64
	}{
		{"drop-dup", "drop=0.02,dup=0.01,timeout=1500", 7},
		{"freeze-degrade", "freeze-mem=3000:500,degrade-ring=5000:300,timeout=1500", 21},
		// wedge-mem is deliberately absent: a permanently wedged memory
		// wedges its waiters in waitMem, where no Sync point can land the
		// kill — the deadlock detector, not the serving layer, owns that.
		{"freeze-nc", "freeze-nc=4000:600,drop=0.03,timeout=1200", 13},
	}
	for _, fs := range schedules {
		t.Run(fs.name, func(t *testing.T) {
			chaos := func(fast bool) core.Config {
				cfg := testConfig(fast)
				cfg.FaultSpec = fs.spec
				cfg.FaultSeed = fs.seed
				cfg.Params.RetryBackoff = true
				cfg.Params.RetryJitterSeed = fs.seed
				return cfg
			}
			ref, refRes := runServe(t, chaos(true), spec, 11)
			s := refRes.Serve
			if got := s.Total.Completed + s.Total.Dropped + s.Total.Failed + s.Total.Shed; got != s.Total.Arrived {
				t.Fatalf("chaos run leaked requests: arrived=%d, terminal states sum to %d",
					s.Total.Arrived, got)
			}
			if s.Total.Timeouts == 0 {
				t.Errorf("schedule fired no deadline kills; soak is not exercising the kill path")
			}
			if report, _ := runServe(t, chaos(false), spec, 11); report != ref {
				t.Errorf("fast hits off diverges from on:\n--- on\n%s--- off\n%s", ref, report)
			}
		})
	}
}
