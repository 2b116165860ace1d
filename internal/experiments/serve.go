package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

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
// of the resilience sweep. Arm names the clauses appended to the bare
// spec: "baseline" none, "all" every resilience clause, and "-hedge",
// "-breaker", "-shed" or "-retries" all but one mechanism's.
type ResiliencePoint struct {
	Fault      string
	Policy     string
	Discipline string
	Arm        string
	Report     *core.ServeResults
}

// resilienceMechanisms are the mechanisms a leave-one-out arm drops, each
// with the clause keys that make it up. Kills have no arm of their own:
// retries= and hedge= need kill=.
var resilienceMechanisms = []struct {
	name string
	keys []string
}{
	{"hedge", []string{"hedge"}},
	{"breaker", []string{"breaker"}},
	{"shed", []string{"shed"}},
	{"retries", []string{"retries", "backoff", "retry-budget"}},
}

// resilienceArm is one arm of the sweep: its name and the clauses it
// appends to the bare spec.
type resilienceArm struct{ name, clauses string }

// resilienceArms derives the arms from the resilience clauses: the bare
// spec, all of them, and all but each mechanism they name.
func resilienceArms(clauses string) []resilienceArm {
	arms := []resilienceArm{{"baseline", ""}, {"all", clauses}}
	all := strings.Split(clauses, ",")
	for _, mech := range resilienceMechanisms {
		var kept []string
		for _, c := range all {
			if key, _, _ := strings.Cut(strings.TrimSpace(c), "="); !slices.Contains(mech.keys, key) {
				kept = append(kept, c)
			}
		}
		if len(kept) < len(all) {
			arms = append(arms, resilienceArm{"-" + mech.name, strings.Join(kept, ",")})
		}
	}
	return arms
}

// SweepResilience crosses fault schedules with placement policies and
// queue disciplines, running each coordinate once per arm of
// resilienceArms, so every row of a coordinate runs under identical faults
// and the leave-one-out arms give each mechanism a number of its own.
// Deterministic and byte-identical for any worker count, like SweepServe.
func SweepResilience(cfg core.Config, base, resilience string, seed, faultSeed uint64,
	faults []FaultSchedule, policies, disciplines []string, workers int) ([]ResiliencePoint, error) {
	if base == "" {
		base = serve.DefaultSpec
	}
	arms := resilienceArms(resilience)
	var pts []ResiliencePoint
	for _, fs := range faults {
		for _, pol := range policies {
			for _, dis := range disciplines {
				for _, arm := range arms {
					pts = append(pts, ResiliencePoint{Fault: fs.Name, Policy: pol, Discipline: dis, Arm: arm.name})
				}
			}
		}
	}
	specOf := make(map[string]string, len(faults))
	for _, fs := range faults {
		specOf[fs.Name] = fs.Spec
	}
	clausesOf := make(map[string]string, len(arms))
	for _, arm := range arms {
		clausesOf[arm.name] = arm.clauses
	}
	out, err := parMap(workers, len(pts), func(i int) (*core.ServeResults, error) {
		pt := pts[i]
		spec := fmt.Sprintf("%s,policy=%s,discipline=%s", base, pt.Policy, pt.Discipline)
		if c := clausesOf[pt.Arm]; c != "" {
			spec += "," + c
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

// PrintResilienceSweep renders the resilience sweep, one row per arm of
// each coordinate: goodput is the number that should move, and the last
// column is each class's p99 latency in cycles, in spec order.
func PrintResilienceSweep(w io.Writer, pts []ResiliencePoint) {
	fmt.Fprintf(w, "%-18s %-12s %-6s %-9s %8s %8s %8s %7s %7s %7s %10s %7s  %s\n",
		"fault", "policy", "disc", "arm", "arrived", "done", "timeout", "retry", "shed", "failed", "good/kcyc", "viol%", "p99/class")
	for _, pt := range pts {
		r := pt.Report
		t := &r.Total
		p99 := make([]string, len(r.Classes))
		for i := range r.Classes {
			p99[i] = fmt.Sprint(r.Classes[i].Latency.Percentile(0.99))
		}
		fmt.Fprintf(w, "%-18s %-12s %-6s %-9s %8d %8d %8d %7d %7d %7d %10.3f %6.1f%%  %s\n",
			pt.Fault, pt.Policy, pt.Discipline, pt.Arm, t.Arrived, t.Completed,
			t.Timeouts, t.Retries, t.Shed, t.Failed,
			r.GoodputPerKCycle(), 100*t.ViolationRate(), strings.Join(p99, "/"))
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
