// Quickstart: build the 64-processor NUMAchine prototype, run a small
// parallel program on it through the public API, and print what the
// monitoring hardware saw.
package main

import (
	"fmt"
	"log"

	"numachine"
)

func main() {
	cfg := numachine.DefaultConfig() // 4 procs/station x 4 stations/ring x 4 rings
	m, err := numachine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const procs = 16
	const lines = 256
	data := m.AllocLines(lines) // shared array, pages round-robin across stations
	sum := m.AllocLines(1)      // shared accumulator

	// Each processor writes a slice of the array, waits at a barrier, reads
	// its neighbour's slice, and accumulates a checksum with atomic
	// fetch-and-add.
	prog := func(c *numachine.Ctx) {
		per := lines / procs
		base := c.ID * per
		for i := 0; i < per; i++ {
			c.Write(data+uint64(base+i)*64, uint64(c.ID*1000+i))
		}
		c.Barrier()
		next := ((c.ID + 1) % procs) * per
		var local uint64
		for i := 0; i < per; i++ {
			local += c.Read(data + uint64(next+i)*64)
		}
		c.FetchAdd(sum, local)
	}

	progs := make([]numachine.Program, procs)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	cycles := m.Run()

	if err := m.CheckCoherence(); err != nil {
		log.Fatalf("coherence check failed: %v", err)
	}

	r := m.Results()
	fmt.Printf("ran %d processors for %d cycles (%.1f us at %d MHz)\n",
		procs, cycles, numachine.CyclesToNS(cycles)/1e3, numachine.CPUClockMHz)
	fmt.Printf("references: %d reads, %d writes, %d misses\n",
		r.Proc.Reads, r.Proc.Writes, r.Proc.Misses)
	fmt.Printf("network cache hit rate: %.1f%% (migration %.1f%%)\n",
		100*r.NC.HitRate(), 100*r.NC.MigrationRate())
	fmt.Printf("bus utilization %.1f%%, local rings %.1f%%, central ring %.1f%%\n",
		100*r.BusUtil, 100*r.LocalRingUtil, 100*r.CentralRingUtil)
}
