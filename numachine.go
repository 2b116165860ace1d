// Package numachine is a behavioral, cycle-level simulator of the
// NUMAchine multiprocessor (Vranesic, Brown, Stumm et al., University of
// Toronto, 1995): a cache-coherent NUMA machine whose stations (4
// processors, a memory module, a large DRAM network cache and a ring
// interface on a shared bus) are connected by a two-level hierarchy of
// unidirectional slotted rings.
//
// The package reproduces the paper's principal contributions:
//
//   - the ring hierarchy with routing-mask packet steering, natural
//     multicast and sequencing points (§2.2);
//   - the two-level write-back/invalidate directory coherence protocol
//     with LV/LI/GV/GI states, optimistic upgrades and single
//     unacknowledged invalidation multicasts that implement sequential
//     consistency cheaply (§2.3);
//   - the network cache with its migration, caching, combining and
//     coherence-localization effects (§3.1.4);
//   - sinkable/nonsinkable flow control and deadlock avoidance (§2.4);
//   - the non-intrusive monitoring hardware (§3.3).
//
// Workloads are real Go functions executed against a blocking memory
// interface (execution-driven simulation in the style of MINT); the
// workloads subpackages provide SPLASH-2-style kernels used to reproduce
// the paper's evaluation. Simulations are deterministic: identical
// configurations and programs produce identical cycle counts.
//
// # Quick start
//
//	cfg := numachine.DefaultConfig()          // 64-processor prototype
//	m, err := numachine.New(cfg)
//	if err != nil { ... }
//	base := m.AllocLines(64)
//	m.Load([]numachine.Program{func(c *numachine.Ctx) {
//		c.Write(base, 42)
//		v := c.Read(base)
//		_ = v
//	}})
//	cycles := m.Run()
package numachine

import (
	"numachine/internal/core"
	"numachine/internal/proc"
	"numachine/internal/sim"
	"numachine/internal/topo"
)

// Machine is one simulated NUMAchine instance. Build with New, load
// workloads with Load, execute with Run, and inspect behaviour with
// Results and the exported module fields.
type Machine = core.Machine

// Config describes a machine: geometry, timing parameters and
// primary-cache size. Pages are homed round robin across stations (the
// paper's evaluation setting) unless placed with Machine.AllocAt.
type Config = core.Config

// Geometry fixes the machine shape: processors per station, stations per
// local ring, and the number of local rings on the central ring.
type Geometry = topo.Geometry

// Params bundles every timing and protocol knob of the simulated
// hardware; see sim.DefaultParams for the calibrated prototype values.
type Params = sim.Params

// Results aggregates the monitoring hardware after a run.
type Results = core.Results

// Program is a workload body executed by one simulated processor.
type Program = proc.Program

// Ctx is the blocking memory interface a Program runs against.
type Ctx = proc.Ctx

// Prototype is the paper's 64-processor geometry: 4 processors per
// station, 4 stations per local ring, 4 local rings.
var Prototype = topo.Prototype

// DefaultConfig returns the calibrated 64-processor prototype
// configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultParams returns the calibrated timing parameters on their own.
func DefaultParams() Params { return sim.DefaultParams() }

// CPUClockMHz is the prototype's processor clock (a 150 MHz R4400).
const CPUClockMHz = sim.CPUClockMHz

// CyclesToNS converts a cycle count to nanoseconds at CPUClockMHz.
func CyclesToNS(cycles int64) float64 { return sim.CyclesToNS(cycles) }

// New builds a machine from cfg.
func New(cfg Config) (*Machine, error) { return core.New(cfg) }
