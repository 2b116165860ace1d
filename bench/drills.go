package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"time"

	"numachine"
	"numachine/internal/sim"
)

// A drill is a benchmark-owned program written against the public
// numachine API only (New, AllocAt, Load, Run, Ctx.Read/Write/Barrier),
// built to spend its whole run on one path of the simulator. It reports
// host nanoseconds and simulated cycles per unit of work; the unit is
// the drill's own (a reference, an ownership transfer, a barrier round).
type drill struct {
	Name string
	Unit string // what one "ref" is
	// Build returns a loaded machine and the units of work its run does.
	Build func(seed uint64, scale int) (*numachine.Machine, int64, error)
}

const (
	drillReps = 5 // timed repetitions per drill, after one warm-up

	// The miss drills shrink both caches so a small footprint overflows
	// them: 4x the L2 and 2x the network cache, so that neither level
	// ever holds a line until its next use.
	drillL2Lines = 2048
	drillNCLines = 4096
)

func drillConfig() numachine.Config {
	cfg := numachine.DefaultConfig()
	cfg.Params.L2Lines = drillL2Lines
	cfg.Params.NCLines = drillNCLines
	return cfg
}

// lineOffset derives a line index in [0, n) from the seed; it is the
// seed's only effect on a drill's address stream.
func lineOffset(seed uint64, n int) int {
	return int((seed * 2654435761) % uint64(n))
}

// rereadDrill is one CPU re-reading one line of its own station.
func rereadDrill(fastHits bool, refs int) func(uint64, int) (*numachine.Machine, int64, error) {
	return func(seed uint64, scale int) (*numachine.Machine, int64, error) {
		cfg := numachine.DefaultConfig()
		cfg.FastHits = fastHits
		m, err := numachine.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		line := uint64(cfg.Params.LineSize)
		lines := cfg.Params.PageSize / cfg.Params.LineSize
		addr := m.AllocAt(0, cfg.Params.PageSize) + uint64(lineOffset(seed, lines))*line
		n := refs / scale
		m.Load([]numachine.Program{func(c *numachine.Ctx) {
			for i := 0; i < n; i++ {
				c.Read(addr)
			}
		}})
		return m, int64(n), nil
	}
}

// streamDrill is one CPU on station 0 streaming over a footprint of 4x
// its L2, homed on the given station.
func streamDrill(home func(numachine.Geometry) int) func(uint64, int) (*numachine.Machine, int64, error) {
	return func(seed uint64, scale int) (*numachine.Machine, int64, error) {
		cfg := drillConfig()
		m, err := numachine.New(cfg)
		if err != nil {
			return nil, 0, err
		}
		lines := 4 * drillL2Lines
		line := uint64(cfg.Params.LineSize)
		base := m.AllocAt(home(cfg.Geom), lines*cfg.Params.LineSize)
		start := lineOffset(seed, lines)
		n := 4 * lines / scale
		m.Load([]numachine.Program{func(c *numachine.Ctx) {
			for i := 0; i < n; i++ {
				c.Read(base + uint64((start+i)%lines)*line)
			}
		}})
		return m, int64(n), nil
	}
}

// pingpongDrill is two CPUs on different rings taking turns writing one
// line: each waits (spinning on its cached copy) for the other's value,
// then writes its own, so every write moves ownership across the
// central ring. The unit of work is one such write.
func pingpongDrill(seed uint64, scale int) (*numachine.Machine, int64, error) {
	cfg := numachine.DefaultConfig()
	m, err := numachine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	g := cfg.Geom
	far := g.ProcAt(g.StationAt(1, 0), 0)
	line := uint64(cfg.Params.LineSize)
	lines := cfg.Params.PageSize / cfg.Params.LineSize
	addr := m.AllocAt(0, cfg.Params.PageSize) + uint64(lineOffset(seed, lines))*line
	rounds := 5000 / scale
	progs := make([]numachine.Program, far+1)
	for i := range progs {
		progs[i] = func(*numachine.Ctx) {} // processors between the two stay idle
	}
	progs[0] = func(c *numachine.Ctx) {
		for i := 0; i < rounds; i++ {
			c.Write(addr, uint64(2*i+1))
			for c.Read(addr) != uint64(2*i+2) {
			}
		}
	}
	progs[far] = func(c *numachine.Ctx) {
		for i := 0; i < rounds; i++ {
			for c.Read(addr) != uint64(2*i+1) {
			}
			c.Write(addr, uint64(2*i+2))
		}
	}
	m.Load(progs)
	return m, int64(2 * rounds), nil
}

// barrierDrill is all 64 CPUs doing nothing but barriers; the unit of
// work is one barrier round.
func barrierDrill(_ uint64, scale int) (*numachine.Machine, int64, error) {
	cfg := numachine.DefaultConfig()
	m, err := numachine.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	rounds := 10000 / scale
	progs := make([]numachine.Program, cfg.Geom.Procs())
	for i := range progs {
		progs[i] = func(c *numachine.Ctx) {
			for r := 0; r < rounds; r++ {
				c.Barrier()
			}
		}
	}
	m.Load(progs)
	return m, int64(rounds), nil
}

func allDrills() []drill {
	return []drill{
		{"hit", "read of a cached line, fast path on", rereadDrill(true, 4_000_000)},
		{"handshake", "read of a cached line, FastHits=false", rereadDrill(false, 400_000)},
		{"local_miss", "read missing to the CPU's own station memory",
			streamDrill(func(numachine.Geometry) int { return 0 })},
		{"remote_miss", "read missing to a station on another ring",
			streamDrill(func(g numachine.Geometry) int { return g.StationAt(1, 0) })},
		{"pingpong", "write taking a line from a CPU on another ring", pingpongDrill},
		{"barrier", "barrier round of 64 CPUs", barrierDrill},
	}
}

// drillResult is one drill's figures.
type drillResult struct {
	NSPerRef     stat
	CyclesPerRef float64
}

// runDrill times drillReps runs after one warm-up; the cycle count must
// repeat exactly.
func runDrill(d drill, seed uint64, scale int) (drillResult, error) {
	var res drillResult
	var samples []float64
	for rep := 0; rep <= drillReps; rep++ {
		m, units, err := d.Build(seed, scale)
		if err != nil {
			return res, err
		}
		start := time.Now()
		cycles := m.Run()
		ns := float64(time.Since(start).Nanoseconds())
		cpr := float64(cycles) / float64(units)
		if rep > 0 && cpr != res.CyclesPerRef {
			return res, fmt.Errorf("drill %s: cycles_per_ref %v differs from the previous run's %v", d.Name, cpr, res.CyclesPerRef)
		}
		res.CyclesPerRef = cpr
		if rep > 0 {
			samples = append(samples, ns/float64(units))
		}
	}
	res.NSPerRef = summarize(samples, "ns/ref", "lower")
	return res, nil
}

// barrierRoundNS times one release-and-join of sim.ShardPool — the
// barrier the parallel loop crosses at least once per simulated cycle —
// with empty shards, at the given worker count.
func barrierRoundNS(workers, scale int) stat {
	const shards = 16 // the prototype's station count
	pool := sim.NewShardPool(workers, shards, func(int, int64) int { return 0 })
	defer pool.Stop()
	rounds := 200_000 / scale
	var samples []float64
	for rep := 0; rep <= drillReps; rep++ {
		start := time.Now()
		for i := 0; i < rounds; i++ {
			pool.Cycle(int64(i))
		}
		if rep > 0 {
			samples = append(samples, float64(time.Since(start).Nanoseconds())/float64(rounds))
		}
	}
	return summarize(samples, "ns", "lower")
}

// runDrills runs every drill and the sanity checks that tie them to the
// machine they claim to isolate; scale divides each drill's length.
func runDrills(w io.Writer, seed uint64, scale int) (map[string]stat, error) {
	gomaxprocs := hostProcs()
	out := map[string]stat{}
	results := map[string]drillResult{}
	fmt.Fprintf(w, "drills: seed %d, host.gomaxprocs %d, median of %d runs [q1 .. q3]\n", seed, gomaxprocs, drillReps)
	runtime.GOMAXPROCS(1) // every drill runs a serial loop (runEnv.procsFor)
	for _, d := range allDrills() {
		r, err := runDrill(d, seed, scale)
		if err != nil {
			return nil, err
		}
		results[d.Name] = r
		out["drill."+d.Name+".ns_per_ref"] = r.NSPerRef
		out["drill."+d.Name+".cycles_per_ref"] = exactStat(r.CyclesPerRef, "cycles/ref")
		fmt.Fprintf(w, "   drill.%s.ns_per_ref %12.2f ns/ref [%.2f .. %.2f]   drill.%s.cycles_per_ref %10.3f cycles/ref   (ref = %s)\n",
			d.Name, r.NSPerRef.Value, r.NSPerRef.Q1, r.NSPerRef.Q3, d.Name, r.CyclesPerRef, d.Unit)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	br := barrierRoundNS(gomaxprocs, scale)
	out["sim.barrier_round_ns"] = br
	fmt.Fprintf(w, "   sim.barrier_round_ns %12.2f ns [%.2f .. %.2f]   (sim.ShardPool, %d workers, empty shards)\n",
		br.Value, br.Q1, br.Q3, gomaxprocs)

	if l, r := results["local_miss"].CyclesPerRef, results["remote_miss"].CyclesPerRef; l >= r {
		return out, fmt.Errorf("sanity: drill.local_miss.cycles_per_ref %.3f is not below drill.remote_miss.cycles_per_ref %.3f", l, r)
	}
	if h, s := results["hit"].NSPerRef.Value, results["handshake"].NSPerRef.Value; h >= s {
		return out, fmt.Errorf("sanity: drill.hit.ns_per_ref %.2f is not below drill.handshake.ns_per_ref %.2f", h, s)
	}
	fmt.Fprintln(w, "   sanity: local_miss cycles < remote_miss cycles, hit ns < handshake ns: ok")
	return out, nil
}

func cmdDrills(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("drills", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "derives each drill's address stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, err := runDrills(w, *seed, 1)
	return err
}
