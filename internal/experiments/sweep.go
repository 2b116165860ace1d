package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"numachine/internal/core"
)

// Sweep-level parallelism: every (workload, P) simulation point is an
// independent machine, so a figure's points can run concurrently. Results
// are deterministic regardless of worker count — each point writes only
// its own input-order slot, and the reported error is always the
// lowest-index failure — so `experiments -workers 8` prints byte-identical
// output to a serial run.

// parMap runs fn(0..n-1) on up to workers goroutines and returns the
// results in input order. workers <= 0 means GOMAXPROCS; a single worker
// degenerates to a plain loop.
func parMap[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SpeedupCurve is one workload's Figure 13/14 curve.
type SpeedupCurve struct {
	Name   string
	Points []SpeedupPoint
}

// SweepSpeedups measures the speedup curves of several workloads
// (Figures 13 and 14: T(1)/T(P) over the parallel section, as in §4.3),
// fanning every (workload, P) point out across the worker pool — the unit
// of parallelism is the simulation point, not the curve, so a figure's
// sweep saturates the workers even when individual curves are short.
// procs must start at 1 (the T(1) baseline). sizes maps workload name to
// problem size.
func SweepSpeedups(cfg core.Config, names []string, sizes map[string]int, procs []int, workers int) ([]SpeedupCurve, error) {
	if len(procs) == 0 || procs[0] != 1 {
		return nil, fmt.Errorf("speedup: processor counts must start at 1, got %v", procs)
	}
	type point struct{ wl, p int }
	var pts []point
	for wl := range names {
		for p := range procs {
			pts = append(pts, point{wl, p})
		}
	}
	runs, err := parMap(workers, len(pts), func(i int) (RunResult, error) {
		pt := pts[i]
		return runOne(cfg, names[pt.wl], procs[pt.p], sizes[names[pt.wl]], workers)
	})
	if err != nil {
		return nil, err
	}
	var curves []SpeedupCurve
	for wl, name := range names {
		c := SpeedupCurve{Name: name}
		t1 := runs[wl*len(procs)].Cycles
		for p, nprocs := range procs {
			cycles := runs[wl*len(procs)+p].Cycles
			c.Points = append(c.Points, SpeedupPoint{
				Procs: nprocs, Cycles: cycles, Speedup: float64(t1) / float64(cycles),
			})
		}
		curves = append(curves, c)
	}
	return curves, nil
}
