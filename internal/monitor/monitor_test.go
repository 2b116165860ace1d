package monitor

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	for i := 0; i < 10; i++ {
		u.Tick(i < 3)
	}
	if u.Value() != 0.3 {
		t.Errorf("utilization = %v, want 0.3", u.Value())
	}
	var empty Utilization
	if empty.Value() != 0 {
		t.Error("empty utilization must be 0")
	}
}

func TestSampler(t *testing.T) {
	var s Sampler
	for _, v := range []int64{10, 20, 60} {
		s.Sample(v)
	}
	if s.Count() != 3 || s.Mean() != 30 || s.Max() != 60 {
		t.Errorf("sampler count=%d mean=%v max=%d", s.Count(), s.Mean(), s.Max())
	}
}

func TestTableCellsAndTotals(t *testing.T) {
	tb := &Table{Name: "t", Rows: []string{"r0", "r1"}, Cols: []string{"c0", "c1", "c2"}}
	tb.Add(0, 1)
	tb.Add(0, 1)
	tb.Add(1, 2)
	if tb.Cell(0, 1) != 2 || tb.Cell(1, 2) != 1 || tb.Cell(0, 0) != 0 {
		t.Error("cell counts wrong")
	}
	if tb.RowTotal(0) != 2 || tb.Total() != 3 {
		t.Errorf("row total %d total %d", tb.RowTotal(0), tb.Total())
	}
	if !strings.Contains(tb.String(), "r1") {
		t.Error("rendering misses row labels")
	}
}

// TestTableAllocatesOnFirstAdd: a table nothing counts into holds no
// cells and reads zero everywhere; once allocated by an Add, every cell
// counts exactly.
func TestTableAllocatesOnFirstAdd(t *testing.T) {
	rows, cols := []string{"r0", "r1", "r2"}, []string{"c0", "c1"}
	var tb *Table
	if n := testing.AllocsPerRun(10, func() {
		tb = &Table{Name: "t", Rows: rows, Cols: cols}
		for r := range rows {
			for c := range cols {
				if tb.Cell(r, c) != 0 {
					t.Fatalf("unused cell (%d, %d) = %d", r, c, tb.Cell(r, c))
				}
			}
			if tb.RowTotal(r) != 0 {
				t.Fatalf("unused row %d totals %d", r, tb.RowTotal(r))
			}
		}
		if tb.Total() != 0 {
			t.Fatalf("unused table totals %d", tb.Total())
		}
	}); n != 1 {
		t.Errorf("building and reading an unused table allocates %.1f objects, want 1 (the header)", n)
	}
	if tb.cells != nil {
		t.Fatal("an unused table allocated its cells")
	}
	zeros := 0
	for _, f := range strings.Fields(tb.String()) {
		if f == "0" {
			zeros++
		}
	}
	if zeros != len(rows)*len(cols) {
		t.Errorf("an unused table renders %d zero cells, want %d:\n%s", zeros, len(rows)*len(cols), tb)
	}

	// Count into the lazily allocated table: every cell holds its own.
	tb.Add(0, 0)
	tb.Add(2, 1)
	tb.Add(2, 1)
	for i := 0; i < 10; i++ {
		tb.Add(1, 1)
	}
	for _, w := range []struct {
		r, c int
		n    int64
	}{{0, 0, 1}, {2, 1, 2}, {1, 1, 10}, {1, 0, 0}} {
		if got := tb.Cell(w.r, w.c); got != w.n {
			t.Errorf("cell (%d, %d) = %d, want %d", w.r, w.c, got, w.n)
		}
	}
	if tb.RowTotal(1) != 10 || tb.Total() != 13 {
		t.Errorf("row 1 totals %d, table %d; want 10, 13", tb.RowTotal(1), tb.Total())
	}
}
