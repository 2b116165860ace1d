package numachine_test

import (
	"testing"

	"numachine"
)

// TestPublicAPI exercises the package through its exported surface only:
// configuration, allocation, programs, barriers, atomics, results.
func TestPublicAPI(t *testing.T) {
	cfg := numachine.DefaultConfig()
	cfg.Geom = numachine.Geometry{ProcsPerStation: 2, StationsPerRing: 2, Rings: 2}
	m, err := numachine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := m.AllocLines(32)
	sum := m.AllocLines(1)
	const procs = 8

	prog := func(c *numachine.Ctx) {
		per := 32 / procs
		for i := 0; i < per; i++ {
			c.Write(data+uint64(c.ID*per+i)*64, uint64(c.ID*10+i))
		}
		c.Barrier()
		var local uint64
		next := (c.ID + 1) % procs
		for i := 0; i < per; i++ {
			local += c.Read(data + uint64(next*per+i)*64)
		}
		c.FetchAdd(sum, local)
	}
	progs := make([]numachine.Program, procs)
	for i := range progs {
		progs[i] = prog
	}
	m.Load(progs)
	cycles := m.Run()
	if cycles <= 0 {
		t.Fatalf("cycles = %d", cycles)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}

	// Every write is read exactly once; the accumulated sum is fixed.
	want := uint64(0)
	for id := 0; id < procs; id++ {
		for i := 0; i < 32/procs; i++ {
			want += uint64(id*10 + i)
		}
	}
	final := m.Mems[m.HomeOf(sum)]
	_, _, _, _, v := final.Peek(m.LineOf(sum))
	// The last owner may still hold the line dirty; read it back coherently.
	verify := func(c *numachine.Ctx) {
		if got := c.Read(sum); got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	}
	m.Load([]numachine.Program{verify})
	m.Run()
	_ = v

	r := m.Results()
	if r.Proc.Reads == 0 || r.Proc.Writes == 0 {
		t.Error("results recorded no references")
	}
	if r.NC.Requests == 0 {
		t.Error("no NC requests despite remote pages")
	}
}

// TestDefaultConfigIsPrototype pins the published machine shape.
func TestDefaultConfigIsPrototype(t *testing.T) {
	cfg := numachine.DefaultConfig()
	if cfg.Geom != numachine.Prototype {
		t.Errorf("default geometry %+v, want the 64-processor prototype", cfg.Geom)
	}
	if cfg.Geom.Procs() != 64 {
		t.Errorf("prototype has %d processors, want 64", cfg.Geom.Procs())
	}
	p := cfg.Params
	if p.LineSize != 64 || numachine.CPUClockMHz != 150 {
		t.Errorf("prototype line/clock = %d/%d, want 64/150", p.LineSize, numachine.CPUClockMHz)
	}
	if !p.SCLocking || !p.OptimisticUpgrades {
		t.Error("paper protocol options must default on")
	}
}
