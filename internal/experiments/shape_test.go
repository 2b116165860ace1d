package experiments

import (
	"testing"

	"numachine/internal/core"
)

// TestSpeedupShape asserts EXPERIMENTS' "Preserved" claims for Figures 13
// and 14 on the speedup curves at SpeedupSizes, P = 1, 16, 64: every curve
// grows with P; radix scales worst of the five at P=64, and ocean and
// barnes beat lu-contig and radix there; contiguous LU beats
// non-contiguous LU at P=64. The points run on every host CPU; parMap's
// output does not depend on the worker count.
func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := SweepSpeedups(core.DefaultConfig(), []string{"barnes", "ocean", "lu-contig", "lu-noncontig", "radix"},
		SpeedupSizes(), []int{1, 16, 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	at64 := map[string]float64{}
	for _, c := range curves {
		for i := 1; i < len(c.Points); i++ {
			if prev, p := c.Points[i-1], c.Points[i]; p.Speedup <= prev.Speedup {
				t.Errorf("%s: speedup %.2fx at P=%d does not grow past %.2fx at P=%d",
					c.Name, p.Speedup, p.Procs, prev.Speedup, prev.Procs)
			}
		}
		at64[c.Name] = c.Points[len(c.Points)-1].Speedup
	}
	for name, s := range at64 {
		if name != "radix" && s <= at64["radix"] {
			t.Errorf("P=64: radix %.2fx is not the lowest speedup (%s %.2fx)", at64["radix"], name, s)
		}
	}
	for _, top := range []string{"ocean", "barnes"} {
		for _, low := range []string{"lu-contig", "radix"} {
			if at64[top] <= at64[low] {
				t.Errorf("P=64: %s %.2fx does not beat %s %.2fx", top, at64[top], low, at64[low])
			}
		}
	}
	if at64["lu-contig"] <= at64["lu-noncontig"] {
		t.Errorf("P=64: lu-contig %.2fx does not beat lu-noncontig %.2fx", at64["lu-contig"], at64["lu-noncontig"])
	}
}
