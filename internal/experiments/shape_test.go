package experiments

import (
	"os"
	"testing"

	"numachine/internal/core"
)

func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	curves, err := SweepSpeedups(core.DefaultConfig(), []string{"barnes", "ocean", "lu-contig", "radix"},
		SpeedupSizes(), []int{1, 16, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		PrintSpeedup(os.Stdout, c.Name, c.Points)
	}
}
