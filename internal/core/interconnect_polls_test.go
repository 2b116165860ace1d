package core_test

import (
	"reflect"
	"testing"

	"numachine/internal/core"
	"numachine/internal/topo"
	"numachine/internal/workloads"
)

// TestInterconnectPollsFindWork pins that the interconnect's wakes are
// exact. Every mark into a ring interface, a local ring or the central ring
// is the receiver's own wake: an RI's NextWork after the local ring filled
// its input FIFO, and a ring's edge at which the RI, or the IRI FIFO, that
// was just fed can inject. So after the first cycle, which polls every
// component, a poll of the interconnect never finds that its component has
// nothing to do. The audited run must also be the production run: same
// cycles, same results.
func TestInterconnectPollsFindWork(t *testing.T) {
	run := func(audit bool) (int64, core.Results, *[]string) {
		cfg := core.DefaultConfig()
		cfg.Geom = topo.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 3}
		cfg.Params.L2Lines, cfg.Params.NCLines = 64, 128
		cfg.CheckInvariants = true
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var idle *[]string
		if audit {
			idle = core.AuditInterconnectPolls(m)
		}
		inst, err := workloads.Build("radix", m, cfg.Geom.Procs(), 1024)
		if err != nil {
			t.Fatal(err)
		}
		m.Load(inst.Progs)
		cycles := m.Run()
		if err := inst.Check(); err != nil {
			t.Fatal(err)
		}
		return cycles, m.Results(), idle
	}
	cycles, res, idle := run(true)
	if n := len(*idle); n > 0 {
		t.Errorf("%d interconnect polls found no work after the first cycle; first: %s", n, (*idle)[0])
	}
	refCycles, ref, _ := run(false)
	if cycles != refCycles || !reflect.DeepEqual(res, ref) {
		t.Errorf("audited run took %d cycles, production %d; results equal: %v",
			cycles, refCycles, reflect.DeepEqual(res, ref))
	}
}
