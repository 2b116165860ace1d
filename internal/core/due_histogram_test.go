package core_test

import (
	"fmt"
	"strings"
	"testing"

	"numachine/internal/core"
	"numachine/internal/workloads"
)

// TestDueStationHistogram prints, for the kernels of the par64 and miss64
// benchmark workloads (64 CPUs on 16 stations, L2 2048 and NC 8192 lines),
// how many stations are due per cycle that has any due station. It is the
// traffic the pooled executor's dispatch cutoff (poolMinDue) is chosen
// from; DESIGN.md "Gated cycle loop" carries the table. Run it with -v.
func TestDueStationHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("six 64-CPU kernels; the table is read with -v")
	}
	cases := []struct {
		name        string
		procs, size int
	}{
		{"ocean", 64, 128},
		{"water-nsq", 64, 128},
		{"radix", 64, 32768},
		{"fft", 64, 16384},
	}
	// Bins by due stations: 1, 2, 3-4, 5-7, 8-11, 12-16.
	lo := []int{1, 2, 3, 5, 8, 12}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %5s %6s %6s %6s %6s %6s %6s\n",
		"kernel", "due cycles", "mean", "1", "2", "3-4", "5-7", "8-11", ">=12")
	for _, c := range cases {
		cfg := core.DefaultConfig()
		cfg.Params.L2Lines = 2048
		cfg.Params.NCLines = 8192
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := workloads.Build(c.name, m, c.procs, c.size)
		if err != nil {
			t.Fatal(err)
		}
		m.Load(inst.Progs)
		hist := core.CountDueStations(m)
		m.Run()
		if err := inst.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var cycles, due int64
		bins := make([]int64, len(lo))
		for n := 1; n < len(hist); n++ {
			cycles += hist[n]
			due += int64(n) * hist[n]
			i := len(lo) - 1
			for lo[i] > n {
				i--
			}
			bins[i] += hist[n]
		}
		if cycles == 0 {
			t.Fatalf("%s: no cycle had a due station", c.name)
		}
		fmt.Fprintf(&b, "%-16s %10d %5.2f", fmt.Sprintf("%s %d/%d", c.name, c.procs, c.size),
			cycles, float64(due)/float64(cycles))
		for _, k := range bins {
			fmt.Fprintf(&b, " %5.1f%%", 100*float64(k)/float64(cycles))
		}
		b.WriteString("\n")
	}
	t.Log("due stations per cycle with any due station:\n" + b.String())
}
