// Splash: runs one of the SPLASH-2-style workloads (the paper's Table 2
// programs) on a configurable machine and prints its speedup over 1, 4, 16
// and 64 processors — a miniature of the paper's Figures 13/14.
//
// Usage: go run ./examples/splash [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"numachine"
	"numachine/internal/experiments"
	"numachine/internal/workloads"
)

func main() {
	name := "radix"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	found := false
	for _, n := range workloads.Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		log.Fatalf("unknown workload %q; available: %v", name, workloads.Names())
	}

	cfg := numachine.DefaultConfig()
	size := experiments.SpeedupSizes()[name]
	fmt.Printf("%s (size %d) on the 64-processor prototype:\n", name, size)
	// workers 0: run the four points concurrently on all available cores.
	curves, err := experiments.SweepSpeedups(cfg, []string{name}, map[string]int{name: size}, []int{1, 4, 16, 64}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range curves[0].Points {
		bar := ""
		for i := 0; i < int(p.Speedup*2+0.5); i++ {
			bar += "#"
		}
		fmt.Printf("  P=%-3d %9d cycles  %6.2fx %s\n", p.Procs, p.Cycles, p.Speedup, bar)
	}
}
