package workloads

import (
	"fmt"
	"math"

	"numachine/internal/core"
	"numachine/internal/proc"
	"numachine/internal/sim"
)

func init() { register("barnes", buildBarnes) }

// bhNode is one octree node (host side).
type bhNode struct {
	center vec3    // cell center
	half   float64 // half side length
	mass   float64
	com    vec3 // center of mass
	body   int  // body index for leaves, -1 otherwise
	child  [8]int
	leaf   bool
}

// buildBarnes implements the SPLASH-2 Barnes application: a Barnes-Hut
// hierarchical N-body simulation. Each step the processors build the
// octree in parallel using per-cell locks (hand-over-hand down the tree,
// as in SPLASH-2's parallel loading), summarize the cells' centers of
// mass in parallel over subtrees, compute forces by tree traversal
// (heavily read-shared node data), and integrate the bodies they own.
// The paper ran 16384 particles; the default here is 256 for 2 steps with
// theta = 0.6.
func buildBarnes(m *core.Machine, nprocs, size int) (*Instance, error) {
	n := size
	if n <= 0 {
		n = 256
	}
	const (
		steps = 2
		theta = 0.6
		eps2  = 1e-4 // softening
		dt    = 1e-3
	)
	box := 100.0

	rng := sim.NewRNG(0xBA27E5)
	pos := make([]vec3, n)
	vel := make([]vec3, n)
	mass := make([]float64, n)
	acc := make([]vec3, n)
	for i := range pos {
		pos[i] = vec3{rng.Float64() * box, rng.Float64() * box, rng.Float64() * box}
		vel[i] = vec3{rng.Float64() - 0.5, rng.Float64() - 0.5, rng.Float64() - 0.5}
		mass[i] = 0.5 + rng.Float64()
	}

	lineSz := m.Params().LineSize
	maxNodes := 8 * n
	simBody := newRegion(m, n, lineSz)        // one line per body record
	simNode := newRegion(m, maxNodes, lineSz) // one line per tree node
	nodeLocks := newRegion(m, maxNodes, lineSz)
	allocCtr := m.AllocLines(1) // shared node allocation counter

	nodes := make([]bhNode, maxNodes)

	octant := func(center, p vec3) int {
		o := 0
		if p.x >= center.x {
			o |= 1
		}
		if p.y >= center.y {
			o |= 2
		}
		if p.z >= center.z {
			o |= 4
		}
		return o
	}
	childCenter := func(center vec3, half float64, o int) vec3 {
		q := half / 2
		c := center
		if o&1 != 0 {
			c.x += q
		} else {
			c.x -= q
		}
		if o&2 != 0 {
			c.y += q
		} else {
			c.y -= q
		}
		if o&4 != 0 {
			c.z += q
		} else {
			c.z -= q
		}
		return c
	}
	initNode := func(idx int, center vec3, half float64) *bhNode {
		nd := &nodes[idx]
		*nd = bhNode{center: center, half: half, body: -1}
		for i := range nd.child {
			nd.child[i] = -1
		}
		return nd
	}
	// allocNode claims fresh node indices from the shared counter in
	// chunks, so the hot allocation line is touched once per 16 nodes
	// rather than per node (SPLASH preallocates per-processor pools
	// similarly).
	const allocChunk = 16
	allocChunks := make([][2]int, nprocs) // per processor: next, limit
	allocNode := func(c *proc.Ctx) int {
		ch := &allocChunks[c.ID]
		if ch[0] >= ch[1] {
			ch[0] = int(c.FetchAdd(allocCtr, allocChunk))
			ch[1] = ch[0] + allocChunk
		}
		idx := ch[0]
		ch[0]++
		if idx >= maxNodes {
			panic("barnes: octree exceeded its shared-memory region")
		}
		return idx
	}

	// insert adds body b using SPLASH-2's optimistic discipline: descend
	// lock-free (cells only ever gain children and never revert to
	// leaves), lock only the cell about to be modified, and re-validate
	// it under the lock, retrying from the same cell if it changed.
	insert := func(c *proc.Ctx, b int) {
		cur := 0
		for {
			simNode.read(c, cur)
			nd := &nodes[cur]
			if nd.leaf {
				// Split the leaf: push the resident body one level down.
				c.AcquireLock(nodeLocks.addr(cur))
				if nodes[cur].leaf { // re-validate under the lock
					old := nd.body
					o := octant(nd.center, pos[old])
					ch := allocNode(c)
					cnd := initNode(ch, childCenter(nd.center, nd.half, o), nd.half/2)
					cnd.leaf = true
					cnd.body = old
					nd.child[o] = ch
					nd.leaf = false
					nd.body = -1
					simNode.write(c, ch)
					simNode.write(c, cur)
					c.Compute(8)
				}
				c.ReleaseLock(nodeLocks.addr(cur))
				continue
			}
			o := octant(nd.center, pos[b])
			if nd.child[o] == -1 {
				c.AcquireLock(nodeLocks.addr(cur))
				if nodes[cur].child[o] == -1 { // re-validate under the lock
					ch := allocNode(c)
					cnd := initNode(ch, childCenter(nd.center, nd.half, o), nd.half/2)
					cnd.leaf = true
					cnd.body = b
					nd.child[o] = ch
					simNode.write(c, ch)
					simNode.write(c, cur)
					c.ReleaseLock(nodeLocks.addr(cur))
					return
				}
				c.ReleaseLock(nodeLocks.addr(cur))
				continue
			}
			cur = nd.child[o]
			c.Compute(4)
		}
	}

	// summarize computes mass and center of mass bottom-up for a subtree.
	var summarize func(c *proc.Ctx, t int)
	summarize = func(c *proc.Ctx, t int) {
		nd := &nodes[t]
		if nd.leaf {
			nd.mass = mass[nd.body]
			nd.com = pos[nd.body]
			simNode.write(c, t)
			return
		}
		nd.mass = 0
		var wc vec3
		for _, ch := range nd.child {
			if ch == -1 {
				continue
			}
			summarize(c, ch)
			nd.mass += nodes[ch].mass
			wc = wc.add(nodes[ch].com.scale(nodes[ch].mass))
			simNode.read(c, ch)
		}
		nd.com = wc.scale(1 / nd.mass)
		simNode.write(c, t)
		c.Compute(30)
	}
	// foldNode recomputes an internal node from already-summarized children.
	foldNode := func(c *proc.Ctx, t int) {
		nd := &nodes[t]
		if nd.leaf {
			nd.mass = mass[nd.body]
			nd.com = pos[nd.body]
			simNode.write(c, t)
			return
		}
		nd.mass = 0
		var wc vec3
		for _, ch := range nd.child {
			if ch == -1 {
				continue
			}
			nd.mass += nodes[ch].mass
			wc = wc.add(nodes[ch].com.scale(nodes[ch].mass))
			simNode.read(c, ch)
		}
		nd.com = wc.scale(1 / nd.mass)
		simNode.write(c, t)
		c.Compute(30)
	}

	// forceOn walks the tree accumulating the acceleration on body b.
	var forceOn func(c *proc.Ctx, t, b int, a *vec3)
	forceOn = func(c *proc.Ctx, t, b int, a *vec3) {
		nd := &nodes[t]
		simNode.read(c, t)
		if nd.leaf {
			if nd.body == b {
				return
			}
			d := nd.com.sub(pos[b])
			r2 := d.norm2() + eps2
			*a = a.add(d.scale(nd.mass / (r2 * math.Sqrt(r2))))
			c.Compute(55) // sqrt + divide + multiply-adds at R4400 latencies
			return
		}
		d := nd.com.sub(pos[b])
		r2 := d.norm2() + eps2
		if (2*nd.half)*(2*nd.half) < theta*theta*r2 {
			*a = a.add(d.scale(nd.mass / (r2 * math.Sqrt(r2))))
			c.Compute(55)
			return
		}
		c.Compute(12) // opening test
		for _, ch := range nd.child {
			if ch != -1 {
				forceOn(c, ch, b, a)
			}
		}
	}

	var checkErr error
	prog := func(c *proc.Ctx) {
		id := c.ID
		lo, hi := blockRange(n, nprocs, id)
		for step := 0; step < steps; step++ {
			// Reset the tree (processor 0), then load bodies in parallel.
			if id == 0 {
				initNode(0, vec3{box / 2, box / 2, box / 2}, box/2)
				c.Write(allocCtr, 1) // node 0 is the root
				simNode.write(c, 0)
			}
			c.Barrier()
			allocChunks[id] = [2]int{0, 0} // stale chunks died with the old tree
			for b := lo; b < hi; b++ {
				simBody.read(c, b)
				insert(c, b)
			}
			c.Barrier()
			// Summarize in parallel over the root's grandchild subtrees,
			// then fold the top two levels on processor 0.
			sub := 0
			for _, ch := range nodes[0].child {
				if ch == -1 {
					continue
				}
				if nodes[ch].leaf {
					continue
				}
				for _, gc := range nodes[ch].child {
					if gc == -1 {
						continue
					}
					if sub%nprocs == id {
						summarize(c, gc)
					}
					sub++
				}
			}
			c.Barrier()
			if id == 0 {
				for _, ch := range nodes[0].child {
					if ch != -1 {
						foldNode(c, ch)
					}
				}
				foldNode(c, 0)
			}
			c.Barrier()
			// Parallel force computation over owned bodies.
			for b := lo; b < hi; b++ {
				simBody.read(c, b)
				var a vec3
				forceOn(c, 0, b, &a)
				acc[b] = a
			}
			c.Barrier()
			// Verify against direct summation before integration moves the
			// positions.
			if id == 0 && step == steps-1 && checkErr == nil {
				checkErr = barnesVerify(pos, mass, acc, eps2, theta)
				if checkErr == nil {
					var total float64
					for _, b := range mass {
						total += b
					}
					if math.Abs(nodes[0].mass-total) > 1e-6*total {
						checkErr = fmt.Errorf("barnes: root mass %g != total %g", nodes[0].mass, total)
					}
				}
			}
			c.Barrier()
			// Integrate owned bodies.
			for b := lo; b < hi; b++ {
				vel[b] = vel[b].add(acc[b].scale(dt))
				pos[b] = pos[b].add(vel[b].scale(dt))
				pos[b].x = wrap(pos[b].x, box)
				pos[b].y = wrap(pos[b].y, box)
				pos[b].z = wrap(pos[b].z, box)
				simBody.write(c, b)
				c.Compute(9)
			}
			c.Barrier()
		}
	}

	progs := make([]proc.Program, nprocs)
	for i := range progs {
		progs[i] = prog
	}
	check := func() error { return checkErr }
	return &Instance{Name: "barnes", Progs: progs, Check: check}, nil
}

// barnesVerify compares tree-code accelerations with direct summation on
// sampled bodies; theta-approximation errors are bounded loosely.
func barnesVerify(pos []vec3, mass []float64, acc []vec3, eps2, theta float64) error {
	n := len(pos)
	for _, b := range []int{0, n / 3, n / 2, n - 1} {
		var direct vec3
		for j := 0; j < n; j++ {
			if j == b {
				continue
			}
			d := pos[j].sub(pos[b])
			r2 := d.norm2() + eps2
			direct = direct.add(d.scale(mass[j] / (r2 * math.Sqrt(r2))))
		}
		diff := math.Sqrt(acc[b].sub(direct).norm2())
		scale := math.Sqrt(direct.norm2())
		if scale == 0 {
			continue
		}
		if diff/scale > 0.15 {
			return fmt.Errorf("barnes: body %d acceleration off by %.1f%% vs direct sum",
				b, 100*diff/scale)
		}
	}
	return nil
}
