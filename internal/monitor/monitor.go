// Package monitor reproduces NUMAchine's non-intrusive performance
// monitoring hardware (§3.3) beyond its dedicated counters: SRAM-based
// histogram tables that categorize events (such as the cache coherence
// histogram of transaction type × line state), utilization trackers for
// buses and ring links, and latency samplers. The per-processor phase
// identifier, which lets measurements be correlated with program phases,
// is a register of each processor (proc.CPU.Phase). The dedicated counters themselves are plain int64 fields of each
// component's Stats struct, which is also that component's section of
// core.Results — registers read in place, as the host reads the
// hardware's.
//
// The monitoring is "non-intrusive" in the simulator too: components feed
// the monitor, and nothing in the timing model depends on it.
//
// Concurrency contract: utilization trackers, samplers and tables are
// unsynchronized; each instance is owned by exactly one component and
// inherits that component's phase under the station-parallel cycle loop.
package monitor

import (
	"fmt"
	"strings"
)

// Counter is a simulator-side event counter with no hardware counterpart:
// core.Machine.FastForwarded, the cycles quiescence fast-forwarding
// skipped. Component counters are plain int64 Stats fields instead.
type Counter struct{ n int64 }

// Add adds n events.
func (c *Counter) Add(n int64) { c.n += n }

// Value returns the accumulated count.
func (c *Counter) Value() int64 { return c.n }

// Utilization tracks the fraction of cycles a resource was busy, the metric
// reported for buses and rings in Figure 17.
type Utilization struct{ busy, total int64 }

// Tick records one cycle of the resource being busy or idle.
func (u *Utilization) Tick(busy bool) {
	u.total++
	if busy {
		u.busy++
	}
}

// AddBusy records several busy cycles at once (e.g. a burst transfer).
func (u *Utilization) AddBusy(n int64) { u.busy += n }

// AddTotal advances the observation window without marking busy cycles.
func (u *Utilization) AddTotal(n int64) { u.total += n }

// Value returns the utilization in [0, 1]; 0 when nothing was observed.
func (u *Utilization) Value() float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.busy) / float64(u.total)
}

// Sampler accumulates a stream of latency (or depth) samples, reporting
// mean and maximum — the form used for the ring interface delays of
// Figure 18.
type Sampler struct {
	n   int64
	sum int64
	max int64
}

// Sample records one observation.
func (s *Sampler) Sample(v int64) {
	s.n++
	s.sum += v
	if v > s.max {
		s.max = v
	}
}

// Count returns how many observations were recorded.
func (s *Sampler) Count() int64 { return s.n }

// Mean returns the average observation, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Max returns the largest observation.
func (s *Sampler) Max() int64 { return s.max }

// Table is the reconfigurable SRAM histogram table of §3.3.2: events are
// categorized by (row, column). The hardware splits each table into two
// halves and swaps them on overflow so software can drain one while the
// other counts; a simulated count cannot overflow, so one half is kept.
//
// The cells live in one flat slice, allocated by the first Add: most
// tables of most runs count nothing, and an empty table reads zero. A
// table is built by filling in its exported fields; a component holds its
// own by value.
type Table struct {
	Name string
	// Owner and Index, when Owner is set, name the component instance that
	// holds the table: its title reads "Owner[Index] Name". The title is
	// formatted only when printed.
	Owner string
	Index int
	Rows  []string
	Cols  []string

	cells []int64 // nil until the first Add
}

// Add counts one event in cell (r, c).
func (t *Table) Add(r, c int) {
	if t.cells == nil {
		t.cells = make([]int64, len(t.Rows)*len(t.Cols))
	}
	t.cells[t.index(r, c)]++
}

// index returns (r, c)'s offset in cells.
func (t *Table) index(r, c int) int {
	if uint(r) >= uint(len(t.Rows)) || uint(c) >= uint(len(t.Cols)) {
		panic("monitor: table cell out of range")
	}
	return r*len(t.Cols) + c
}

// Cell returns the count for (r, c).
func (t *Table) Cell(r, c int) int64 {
	i := t.index(r, c)
	if t.cells == nil {
		return 0
	}
	return t.cells[i]
}

// RowTotal sums a row.
func (t *Table) RowTotal(r int) int64 {
	var s int64
	for c := range t.Cols {
		s += t.Cell(r, c)
	}
	return s
}

// Total sums the whole table.
func (t *Table) Total() int64 {
	var s int64
	for r := range t.Rows {
		s += t.RowTotal(r)
	}
	return s
}

// Title is the table's heading in reports.
func (t *Table) Title() string {
	if t.Owner == "" {
		return t.Name
	}
	return fmt.Sprintf("%s[%d] %s", t.Owner, t.Index, t.Name)
}

// String renders the table for reports.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-22s", t.Title(), "")
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%14s", c)
	}
	b.WriteByte('\n')
	for r, rn := range t.Rows {
		fmt.Fprintf(&b, "%-22s", rn)
		for c := range t.Cols {
			fmt.Fprintf(&b, "%14d", t.Cell(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
