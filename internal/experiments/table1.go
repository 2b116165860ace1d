// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the contention-free latency yardstick (Table 1), the
// SPLASH-2 speedup curves (Figures 13/14), the network cache hit and
// combining rates (Figures 15/16), communication path utilizations
// (Figure 17), ring interface delays (Figure 18), the false-remote-request
// rates (Table 3), and the sequential-consistency locking ablation (§2.3).
package experiments

import (
	"fmt"
	"io"

	"numachine/internal/core"
	"numachine/internal/proc"
	"numachine/internal/sim"
)

// Table1Row is one measured contention-free latency.
type Table1Row struct {
	Access     string // "Read", "Upgrade", "Intervention"
	Scope      string // "Local", "Remote, same ring", "Remote, different ring"
	Cycles     int64
	NS         float64
	PaperCycle int64 // the value reported in the paper's Table 1
}

// paperTable1 records the published latencies (in 150 MHz CPU cycles).
var paperTable1 = map[[2]string]int64{
	{"Read", "Local"}:                          100,
	{"Upgrade", "Local"}:                       43,
	{"Intervention", "Local"}:                  108,
	{"Read", "Remote, same ring"}:              248,
	{"Upgrade", "Remote, same ring"}:           175,
	{"Intervention", "Remote, same ring"}:      249,
	{"Read", "Remote, different ring"}:         286,
	{"Upgrade", "Remote, different ring"}:      226,
	{"Intervention", "Remote, different ring"}: 290,
}

// Table1 measures the nine contention-free latencies of the paper's
// Table 1 on an otherwise idle prototype machine. Each scenario runs on a
// fresh machine; the probe processor is processor 0 on station 0.
func Table1(cfg core.Config) ([]Table1Row, error) {
	scopes := []struct {
		name string
		home func(m *core.Machine) int // station to home the probed line on
	}{
		{"Local", func(m *core.Machine) int { return 0 }},
		{"Remote, same ring", func(m *core.Machine) int { return 1 }},
		{"Remote, different ring", func(m *core.Machine) int {
			return m.Geometry().StationAt(1, 0)
		}},
	}
	var rows []Table1Row
	for _, scope := range scopes {
		if scope.name == "Remote, different ring" && cfg.Geom.Rings < 2 {
			continue
		}
		for _, access := range []string{"Read", "Upgrade", "Intervention"} {
			cycles, err := probeLatency(cfg, access, scope.home)
			if err != nil {
				return nil, fmt.Errorf("table1 %s/%s: %w", access, scope.name, err)
			}
			rows = append(rows, Table1Row{
				Access:     access,
				Scope:      scope.name,
				Cycles:     cycles,
				NS:         sim.CyclesToNS(cycles),
				PaperCycle: paperTable1[[2]string{access, scope.name}],
			})
		}
	}
	return rows, nil
}

// probeLatency measures one access type with the line homed on the given
// station. Interventions pre-dirty the line in a processor on the home
// station; upgrades pre-share it with the probe processor.
func probeLatency(cfg core.Config, access string, homeOf func(*core.Machine) int) (int64, error) {
	m, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	home := homeOf(m)
	addr := m.AllocAt(home, cfg.Params.PageSize)
	var latency int64

	// The helper processor is processor 1 on the home station (or the
	// probe's neighbour for the local scope).
	helperID := m.Geometry().ProcAt(home, 1)
	nprogs := helperID + 1

	probe := func(c *proc.Ctx) {
		switch access {
		case "Read":
			c.Barrier()
			t0 := c.Cycle()
			c.Read(addr)
			t1 := c.Cycle()
			latency = t1 - t0 - 1
		case "Upgrade":
			c.Read(addr) // obtain a shared copy first
			c.Barrier()
			t0 := c.Cycle()
			c.Write(addr, 1)
			t1 := c.Cycle()
			latency = t1 - t0 - 1
		case "Intervention":
			c.Barrier() // helper dirties the line first
			t0 := c.Cycle()
			c.Read(addr)
			t1 := c.Cycle()
			latency = t1 - t0 - 1
		}
		c.Barrier()
	}
	helper := func(c *proc.Ctx) {
		if access == "Intervention" {
			c.Write(addr, 7)
		}
		c.Barrier()
		c.Barrier()
	}
	idle := func(c *proc.Ctx) { c.Barrier(); c.Barrier() }

	progs := make([]proc.Program, nprogs)
	for i := range progs {
		progs[i] = idle
	}
	progs[0] = probe
	progs[helperID] = helper
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		return 0, err
	}
	return latency, nil
}

// PrintTable1 renders the rows like the paper's Table 1, with the
// published value alongside.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: contention-free request latencies (64-byte lines)\n")
	fmt.Fprintf(w, "%-28s %12s %14s %14s\n", "Data Access Type", "Latency (ns)", "Latency (cyc)", "Paper (cyc)")
	last := ""
	for _, r := range rows {
		if r.Scope != last {
			fmt.Fprintf(w, "%s:\n", r.Scope)
			last = r.Scope
		}
		fmt.Fprintf(w, "  %-26s %12.0f %14d %14d\n", r.Access, r.NS, r.Cycles, r.PaperCycle)
	}
}
