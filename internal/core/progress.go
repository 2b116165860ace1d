package core

import (
	"fmt"
	"strings"

	"numachine/internal/memory"
)

// StuckCPU describes one unfinished processor in a ProgressReport.
type StuckCPU struct {
	ID      int
	Station int
	State   string // processor state-machine name (think, waitMem, ...)
	Line    uint64 // line of the outstanding reference
	Retries int    // consecutive NAKs of the current reference
	Pending string // rendered outstanding reference
}

// ProgressReport is the structured stuck-transaction dump that the
// watchdog and the starvation detector attach to their aborts. Building it
// reconciles every lazily-accounted statistic first, so the rendered
// report is identical whichever cycle loop tripped the abort.
type ProgressReport struct {
	Cycle     int64
	TotalRefs int64      // completed references machine-wide
	CPUs      []StuckCPU // unfinished processors, in id order
	Detail    string     // per-component diagnostics (directories, queues, rings, faults)
}

// Progress builds the forward-progress report for the current cycle.
func (m *Machine) Progress() *ProgressReport {
	m.SyncStats()
	r := &ProgressReport{Cycle: m.now, TotalRefs: m.totalRefs()}
	var b strings.Builder

	// One block per stuck line, in the order of its first waiting CPU.
	var lines []uint64
	waiting := make(map[uint64][]int)
	for i, c := range m.CPUs {
		if c.Done() {
			continue
		}
		line := m.LineOf(c.PendingLine())
		r.CPUs = append(r.CPUs, StuckCPU{
			ID: i, Station: c.Station, State: c.StateName(),
			Line: line, Retries: c.Retries(), Pending: c.Pending(),
		})
		if waiting[line] == nil {
			lines = append(lines, line)
		}
		waiting[line] = append(waiting[line], i)
	}
	for _, line := range lines {
		m.describeLine(&b, line, waiting[line])
	}

	for i, mem := range m.Mems {
		locks := mem.PendingLocks()
		down := mem.Fault.DownCycles(m.now)
		if locks > 0 || !mem.Idle() || down > 0 {
			qs := mem.InQStats()
			fmt.Fprintf(&b, "mem[%d]: locks=%d idle=%v inQ depth=%d (enq=%d max=%d)",
				i, locks, mem.Idle(), mem.InQDepth(), qs.Enqueued, qs.MaxDepth)
			if down > 0 {
				fmt.Fprintf(&b, " fault-down=%d wedged=%v", down, mem.Fault.Wedged(m.now))
			}
			b.WriteByte('\n')
		}
	}
	for i, nc := range m.NCs {
		down := nc.Fault.DownCycles(m.now)
		if !nc.Idle() || down > 0 {
			qs := nc.InQStats()
			fmt.Fprintf(&b, "nc[%d]: busy inQ depth=%d (enq=%d max=%d) nakRetries=%d timeoutReissues=%d",
				i, nc.InQDepth(), qs.Enqueued, qs.MaxDepth,
				nc.Stats.NetNAKRetries, nc.Stats.TimeoutReissues)
			if down > 0 {
				fmt.Fprintf(&b, " fault-down=%d", down)
			}
			b.WriteByte('\n')
		}
	}
	for i, ri := range m.RIs {
		drops, dups := ri.Drops, ri.Dups
		if !ri.Idle() || drops > 0 || dups > 0 {
			sk, nsk, in := ri.QueueStats()
			fmt.Fprintf(&b, "ri[%d]: idle=%v (sink enq=%d maxdepth=%d, nonsink enq=%d maxdepth=%d, in enq=%d depth=%d maxdepth=%d) credits=%d drops=%d dups=%d\n",
				i, ri.Idle(), sk.Enqueued, sk.MaxDepth, nsk.Enqueued, nsk.MaxDepth,
				in.Enqueued, ri.InFIFODepth(), in.MaxDepth, m.credits.InFlight(i), drops, dups)
		}
	}
	for i, lr := range m.Locals {
		if !lr.Drained() || lr.FaultStalls > 0 {
			fmt.Fprintf(&b, "local ring %d: %d packets in slots, stalls=%d fault-stalls=%d\n",
				i, lr.Occupied(), lr.Stalls, lr.FaultStalls)
		}
	}
	if m.Central != nil && (!m.Central.Drained() || m.Central.FaultStalls > 0) {
		fmt.Fprintf(&b, "central ring: %d packets in slots, stalls=%d fault-stalls=%d\n",
			m.Central.Occupied(), m.Central.Stalls, m.Central.FaultStalls)
	}
	for i, iri := range m.IRIs {
		if !iri.Idle() || iri.Drops > 0 {
			fmt.Fprintf(&b, "iri[%d]: up=%d down=%d drops=%d\n",
				i, iri.UpStats().Enqueued, iri.DownStats().Enqueued, iri.Drops)
		}
	}
	for i := 0; i < m.g.Stations(); i++ {
		if n := m.credits.InFlight(i); n > 0 {
			fmt.Fprintf(&b, "credits[%d]: %d nonsinkable in flight\n", i, n)
		}
	}

	r.Detail = b.String()
	return r
}

// describeLine writes one stuck line's block: the CPUs waiting on it, its
// home directory entry, then the NC of every waiting station and, when
// the home records the line GI, the NC of the owner it names.
func (m *Machine) describeLine(b *strings.Builder, line uint64, cpus []int) {
	home := m.HomeOf(line)
	st, lk, mask, procs, _ := m.Mems[home].Peek(line)
	fmt.Fprintf(b, "line %#x: waiting cpus %v\n  mem[%d]: %v locked=%v %v covers=%v procs=%04b %s\n",
		line, cpus, home, st, lk, mask, mask.CoveredStations(m.g), procs, m.Mems[home].TxnInfo(line))
	owner := -1
	if st == memory.GI {
		if s, ok := mask.Exact(m.g); ok {
			owner = s
		}
	}
	seen := map[int]bool{home: true}
	show := func(s int) {
		if s < 0 || seen[s] {
			return
		}
		seen[s] = true
		role := ""
		if s == owner {
			role = " (owner)"
		}
		nc := m.NCs[s]
		if ncs, nlk, npr, _, ok := nc.Peek(line); ok {
			fmt.Fprintf(b, "  nc[%d]%s: %v locked=%v procs=%04b %s\n", s, role, ncs, nlk, npr, nc.TxnInfo(line))
		} else {
			fmt.Fprintf(b, "  nc[%d]%s: NotIn %s\n", s, role, nc.TxnInfo(line))
		}
	}
	for _, c := range cpus {
		show(m.CPUs[c].Station)
	}
	show(owner)
}

// String renders the report: a stuck-transaction line per unfinished
// processor followed by the component diagnostics.
func (r *ProgressReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stuck-transaction report at cycle %d (completed refs=%d, stuck cpus=%d)\n",
		r.Cycle, r.TotalRefs, len(r.CPUs))
	for _, c := range r.CPUs {
		fmt.Fprintf(&b, "cpu[%d] st=%d state=%s line=%#x retries=%d pending=%s\n",
			c.ID, c.Station, c.State, c.Line, c.Retries, c.Pending)
	}
	b.WriteString(r.Detail)
	return b.String()
}
