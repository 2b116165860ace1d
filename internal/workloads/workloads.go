// Package workloads provides from-scratch Go implementations of the
// SPLASH-2-style benchmarks used in the paper's evaluation (§4, Table 2):
// the kernels Radix, FFT, LU (contiguous and non-contiguous) and Cholesky,
// and the applications Barnes, Ocean, Water (N² and spatial), FMM,
// Raytrace and Radiosity.
//
// Each workload is an execution-driven front end: the real algorithm runs
// on host (Go) data structures, while every shared-data access is mirrored
// onto the simulated memory system through the proc.Ctx interface, so the
// timing back end observes the genuine reference stream, data-dependent
// control flow, locks and barriers. Problem sizes are scaled down from the
// paper's (Table 2) to keep single-host simulation times reasonable; the
// scaling is recorded in EXPERIMENTS.md.
package workloads

import (
	"fmt"
	"sort"

	"numachine/internal/core"
	"numachine/internal/proc"
)

// Instance is a workload instantiated on a machine: one program per
// processor plus a post-run correctness check of the algorithm's output.
type Instance struct {
	Name  string
	Progs []proc.Program
	// Check validates the computation's result (run after Machine.Run).
	Check func() error
}

// Builder instantiates a workload for nprocs processors at a problem size
// scale. size <= 0 selects the default (the scaled-down analogue of the
// paper's Table 2 size).
type Builder func(m *core.Machine, nprocs, size int) (*Instance, error)

// registry maps workload names to builders.
var registry = map[string]Builder{}

func register(name string, b Builder) { registry[name] = b }

// Names returns the registered workload names, sorted.
func Names() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build instantiates the named workload.
func Build(name string, m *core.Machine, nprocs, size int) (*Instance, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	if nprocs < 1 || nprocs > m.Geometry().Procs() {
		return nil, fmt.Errorf("workloads: %d processors requested on a %d-processor machine",
			nprocs, m.Geometry().Procs())
	}
	return b(m, nprocs, size)
}

// Kernels lists the SPLASH-2 kernels (Figure 13).
func Kernels() []string {
	return []string{"radix", "lu-contig", "lu-noncontig", "fft", "cholesky"}
}

// Applications lists the SPLASH-2 applications (Figure 14).
func Applications() []string {
	return []string{"water-spatial", "radiosity", "barnes", "water-nsq", "ocean", "fmm", "raytrace"}
}

// NCWorkloads lists the six programs of the NC and utilization figures
// (Figures 15-17).
func NCWorkloads() []string {
	return []string{"barnes", "radix", "fft", "lu-contig", "ocean", "water-nsq"}
}

// ---- shared helpers ----

// blockRange splits [0, n) into nprocs nearly-equal chunks and returns
// chunk id's half-open bounds.
func blockRange(n, nprocs, id int) (lo, hi int) {
	q, r := n/nprocs, n%nprocs
	lo = id*q + min(id, r)
	hi = lo + q
	if id < r {
		hi++
	}
	return lo, hi
}

// region is a shared vector of fixed-size elements living in simulated
// memory. Element values are kept on the host; reads and writes mirror the
// accesses onto the simulated lines so the memory system sees the true
// reference stream.
type region struct {
	base uint64
	elem uint64 // element size in bytes
	n    int
}

// newRegion allocates n elements of elem bytes in simulated shared memory.
func newRegion(m *core.Machine, n, elem int) region {
	return region{base: m.Alloc(n * elem), elem: uint64(elem), n: n}
}

// newArray allocates n 8-byte elements.
func newArray(m *core.Machine, n int) region { return newRegion(m, n, 8) }

// addr returns the simulated address of element i.
func (a region) addr(i int) uint64 { return a.base + uint64(i)*a.elem }

// read mirrors a read of element i.
func (a region) read(c *proc.Ctx, i int) { c.Read(a.addr(i)) }

// write mirrors a write of element i.
func (a region) write(c *proc.Ctx, i int) { c.Write(a.addr(i), uint64(i)) }

// readRange mirrors reads of elements [lo, hi) touching each element once.
func (a region) readRange(c *proc.Ctx, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Read(a.addr(i))
	}
}

// writeRange mirrors writes of elements [lo, hi).
func (a region) writeRange(c *proc.Ctx, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.Write(a.addr(i), uint64(i))
	}
}
