// Monitoring: demonstrates the non-intrusive performance monitoring
// hardware of §3.3 — the cache coherence histogram tables (transaction
// type × line state) and the
// per-processor phase identifier registers that attribute transactions to
// program phases.
package main

import (
	"fmt"
	"log"

	"numachine"
)

func main() {
	cfg := numachine.DefaultConfig()
	cfg.Geom = numachine.Geometry{ProcsPerStation: 4, StationsPerRing: 2, Rings: 2}
	m, err := numachine.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	const procs = 16
	const lines = 128
	shared := m.AllocLines(lines)

	// Two program phases: phase 1 is write-heavy (private slices), phase 2
	// is read-heavy (everyone scans everything). The phase identifier
	// registers let the monitor attribute traffic to each.
	prog := func(c *numachine.Ctx) {
		c.SetPhase(1)
		per := lines / procs
		for i := 0; i < per; i++ {
			c.Write(shared+uint64(c.ID*per+i)*64, uint64(c.ID))
		}
		c.Barrier()
		c.SetPhase(2)
		for i := 0; i < lines; i++ {
			c.Read(shared + uint64(i)*64)
		}
	}
	progs := make([]numachine.Program, procs)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	m.Run()
	if err := m.CheckCoherence(); err != nil {
		log.Fatal(err)
	}

	// The memory module's coherence histogram (§3.3.3): how often each
	// transaction type found the line in each state. Show the home of the
	// shared region's first page (round-robin placement).
	home := m.HomeOf(shared)
	fmt.Println(m.Mems[home].Hist.String())
	fmt.Println(m.NCs[(home+1)%m.Geometry().Stations()].Hist.String())

	r := m.Results()
	fmt.Printf("memory transactions: %d total, %d invalidation multicasts, %d interventions\n",
		r.Mem.Transactions, r.Mem.InvalidatesSent, r.Mem.Interventions)
	fmt.Printf("NC ejections: %d (of which %d LV write-backs, %d silent LI drops)\n",
		r.NC.Ejections, r.NC.EjectWrBacks, r.NC.EjectLISilent)
}
