package experiments

import (
	"fmt"
	"io"

	"numachine/internal/core"
	"numachine/internal/serve"
)

// ServePoint is one (policy, discipline, load) cell of the serving-layer
// sweep: the full serving report for that coordinate.
type ServePoint struct {
	Policy     string
	Discipline string
	Load       int // open-loop arrivals per 1000 cycles
	Report     *core.ServeResults
}

// SweepServe runs the serving layer once per (policy, discipline, load)
// coordinate, fanning the independent machines across the worker pool.
// base is a -serve-spec string (empty = the built-in default scenario);
// each point appends its coordinate clauses, which override base's. Every
// point writes only its own input-order slot, so the result — and any
// table printed from it — is byte-identical for any worker count.
func SweepServe(cfg core.Config, base string, seed uint64, policies, disciplines []string, loads []int, workers int) ([]ServePoint, error) {
	if base == "" {
		base = serve.DefaultSpec
	}
	var pts []ServePoint
	for _, pol := range policies {
		for _, dis := range disciplines {
			for _, load := range loads {
				pts = append(pts, ServePoint{Policy: pol, Discipline: dis, Load: load})
			}
		}
	}
	out, err := parMap(workers, len(pts), func(i int) (*core.ServeResults, error) {
		pt := pts[i]
		return serveOnce(cfg, fmt.Sprintf("%s,open=%d,policy=%s,discipline=%s", base, pt.Load, pt.Policy, pt.Discipline), seed)
	})
	if err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i].Report = out[i]
	}
	return pts, nil
}

// serveOnce runs one serving scenario on a fresh machine and returns its
// serving report.
func serveOnce(cfg core.Config, spec string, seed uint64) (*core.ServeResults, error) {
	sp, err := serve.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	ctl, err := serve.New(m, sp, seed)
	if err != nil {
		return nil, err
	}
	ctl.Run()
	return m.Results().Serve, nil
}

// FaultSchedule names one injected-fault scenario for the resilience
// sweep.
type FaultSchedule struct {
	Name string // row label
	Spec string // internal/fault schedule (empty = fault-free)
}

// ResiliencePoint is one (fault schedule, policy, discipline, arm) cell
// of the resilience sweep; the baseline arm runs the bare spec, the
// resilient arm appends the resilience clauses.
type ResiliencePoint struct {
	Fault      string
	Policy     string
	Discipline string
	Resilient  bool
	Report     *core.ServeResults
}

// SweepResilience crosses fault schedules with placement policies and
// queue disciplines, running each coordinate twice — without and with the
// resilience clauses — so every row pairs a no-resilience baseline with
// its resilient counterpart under identical faults. Deterministic and
// byte-identical for any worker count, like SweepServe.
func SweepResilience(cfg core.Config, base, resilience string, seed, faultSeed uint64,
	faults []FaultSchedule, policies, disciplines []string, workers int) ([]ResiliencePoint, error) {
	if base == "" {
		base = serve.DefaultSpec
	}
	var pts []ResiliencePoint
	for _, fs := range faults {
		for _, pol := range policies {
			for _, dis := range disciplines {
				for _, arm := range []bool{false, true} {
					pts = append(pts, ResiliencePoint{Fault: fs.Name, Policy: pol, Discipline: dis, Resilient: arm})
				}
			}
		}
	}
	specOf := make(map[string]string, len(faults))
	for _, fs := range faults {
		specOf[fs.Name] = fs.Spec
	}
	out, err := parMap(workers, len(pts), func(i int) (*core.ServeResults, error) {
		pt := pts[i]
		spec := fmt.Sprintf("%s,policy=%s,discipline=%s", base, pt.Policy, pt.Discipline)
		if pt.Resilient {
			spec += "," + resilience
		}
		pcfg := cfg
		pcfg.FaultSpec = specOf[pt.Fault]
		pcfg.FaultSeed = faultSeed
		if pcfg.FaultSpec != "" {
			pcfg.Params.RetryBackoff = true
			pcfg.Params.RetryJitterSeed = faultSeed
		}
		return serveOnce(pcfg, spec, seed)
	})
	if err != nil {
		return nil, err
	}
	for i := range pts {
		pts[i].Report = out[i]
	}
	return pts, nil
}

// PrintResilienceSweep renders the resilience sweep: each coordinate's
// baseline and resilient arms side by side, goodput being the number that
// should move.
func PrintResilienceSweep(w io.Writer, pts []ResiliencePoint) {
	fmt.Fprintf(w, "%-18s %-12s %-6s %-9s %8s %8s %8s %7s %7s %7s %10s %7s\n",
		"fault", "policy", "disc", "arm", "arrived", "done", "timeout", "retry", "shed", "failed", "good/kcyc", "viol%")
	for _, pt := range pts {
		r := pt.Report
		t := &r.Total
		arm := "baseline"
		if pt.Resilient {
			arm = "resilient"
		}
		fmt.Fprintf(w, "%-18s %-12s %-6s %-9s %8d %8d %8d %7d %7d %7d %10.3f %6.1f%%\n",
			pt.Fault, pt.Policy, pt.Discipline, arm, t.Arrived, t.Completed,
			t.Timeouts, t.Retries, t.Shed, t.Failed,
			r.GoodputPerKCycle(), 100*t.ViolationRate())
	}
}

// PrintServeSweep renders the sweep as one row per coordinate: offered
// load vs. achieved throughput, tail latency and SLA outcomes under each
// placement policy and queue discipline.
func PrintServeSweep(w io.Writer, pts []ServePoint) {
	fmt.Fprintf(w, "%-12s %-6s %6s %8s %8s %10s %8s %8s %8s %7s %7s\n",
		"policy", "disc", "load", "arrived", "done", "thru/kcyc", "p50", "p95", "p99", "viol%", "drop%")
	for _, pt := range pts {
		r := pt.Report
		t := &r.Total
		fmt.Fprintf(w, "%-12s %-6s %6d %8d %8d %10.3f %8d %8d %8d %6.1f%% %6.1f%%\n",
			pt.Policy, pt.Discipline, pt.Load, t.Arrived, t.Completed, r.Throughput(),
			t.Latency.Percentile(0.50), t.Latency.Percentile(0.95), t.Latency.Percentile(0.99),
			100*t.ViolationRate(), 100*t.DropRate())
	}
}
