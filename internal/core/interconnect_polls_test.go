package core_test

import (
	"testing"

	"numachine/internal/core"
	"numachine/internal/topo"
	"numachine/internal/workloads"
)

// TestInterconnectPollsFindWork pins that every wake is exact, for every
// component kind. Each poll-cache entry is its component's own NextWork and
// every mark is the receiver's own wake, so the gate audit that
// Config.CheckInvariants arms requires, at every cycle a run stops at,
// entry <= now iff NextWork(now) <= now: a due entry is a poll that finds
// work, and a future one hides none. The gate blocks tick without asking
// NextWork first, so a wrong mark is either a lost tick or a tick with
// nothing to do, and the audit stops the run at that cycle either way.
//
// Two machines exercise the marks: a 3-ring radix run, where every CPU,
// bus, memory, NC, RI, local ring and the central ring carries traffic, and
// a 1-CPU ocean run on the paper-size machine, where the processor's own
// barrier arrival releases it and nearly every cycle is fast-forwarded to
// the wake the entries report.
func TestInterconnectPollsFindWork(t *testing.T) {
	cases := []struct {
		name        string
		geom        topo.Geometry
		l2, nc      int
		workload    string
		procs, size int
	}{
		{"radix-3-rings", topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 3}, 64, 128, "radix", 12, 1024},
		{"ocean-1-cpu", core.DefaultConfig().Geom, 0, 0, "ocean", 1, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Geom = tc.geom
			if tc.l2 > 0 {
				cfg.Params.L2Lines, cfg.Params.NCLines = tc.l2, tc.nc
			}
			cfg.CheckInvariants = true
			m, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := workloads.Build(tc.workload, m, tc.procs, tc.size)
			if err != nil {
				t.Fatal(err)
			}
			m.Load(inst.Progs)
			m.Run()
			if err := inst.Check(); err != nil {
				t.Fatal(err)
			}
			if m.FastForwarded.Value() == 0 {
				t.Error("no cycle fast-forwarded: the audit never checked a landing on cachedWake")
			}
		})
	}
}
