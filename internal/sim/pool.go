package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ShardPool runs a fixed set of independent shards on W workers, once per
// Cycle call. It is the execution engine of the station-parallel cycle
// loop: each shard is one station, the shard function ticks that
// station's components, and Cycle is a full barrier — when it returns,
// every shard has finished and its writes are visible to the caller.
//
// The goroutine that calls Cycle is worker 0: it runs the first block of
// shards itself while W-1 persistent helper goroutines run the others, so
// W workers occupy W goroutines. A 1-worker pool starts no helper and its
// Cycle is a plain loop on the caller. The hand-off to the helpers is a
// sense-reversing barrier built from two atomics rather than the classic
// per-cycle channel round:
//
//   - start: the caller publishes the cycle number and bumps an epoch
//     counter (the "sense"); helpers detect the bump with a bounded spin
//     and fall back to a condvar sleep when the caller is slow — so an
//     idle pool burns no CPU between runs, but a hot loop never pays the
//     futex round-trip;
//   - finish: each helper decrements a pending counter; the caller, its
//     own block done, spins until it reaches zero. The atomic
//     decrement/load pair carries the happens-before edge that makes
//     every shard's writes visible to the caller.
//
// The pooled executor dispatches a round only on a simulated cycle with
// enough due stations to pay for it (core's poolMinDue) and runs every
// other cycle inline, so what one round costs sets that cutoff
// (BenchmarkShardPoolHandoff: 16 empty shards). When the caller only
// waited beside W helpers, W+1 runnable goroutines shared W Ps and every
// round paid a scheduler hand-off: at GOMAXPROCS=2 on a 2-vCPU host a
// round read 1988–2298 ns, and with the caller as worker 0 it reads
// 470–652 ns.
//
// The shard-to-worker assignment is a fixed block partition, so a shard is
// always ticked by the same goroutine while the pool is running. Helpers
// launch lazily on the first Cycle and park in Stop, making the pool safe
// to embed in machines that are built in bulk but run selectively.
type ShardPool struct {
	shards  int
	workers int
	run     func(shard int, now int64) int

	now     int64         // cycle argument, written before the epoch bump
	epoch   atomic.Uint32 // start signal; odd/even parity is the "sense"
	pending atomic.Int32  // helpers still running the current cycle
	stopped atomic.Bool   // tells spinning/sleeping helpers to exit

	// sleepers counts helpers blocked on cond. The caller only takes the
	// mutex when it is non-zero; the helper re-checks epoch after
	// registering, so the classic sleeping-barber race resolves to either
	// the helper seeing the new epoch or the caller seeing the sleeper.
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     *sync.Cond

	// counts is indexed worker*countStride to keep each worker's result on
	// its own cache line.
	counts  []int64
	done    sync.WaitGroup // helper lifecycle (Stop waits for exits)
	running bool

	// panics holds, per worker, the value its shard range panicked with in
	// the current cycle. Cycle re-raises the lowest worker's — the
	// lowest panicking shard's, whatever the interleaving — on the caller's
	// goroutine, where it can be recovered; a panic on a helper would end
	// the process.
	panics []any
}

const countStride = 8 // int64s per cache line

// spinBudget bounds the start-signal spin before a helper blocks on the
// condvar. The budget is deliberately modest: during a run the next cycle
// arrives within microseconds and the spin wins; between runs the helper
// parks after ~a few microseconds of polling. Both spins yield every 256
// iterations, so a helper that lost its P (more workers than GOMAXPROCS)
// still gets to run.
const spinBudget = 1 << 14

// NewShardPool builds a pool of min(workers, shards) workers; workers <= 0
// means GOMAXPROCS. No goroutines start until the first Cycle.
func NewShardPool(workers, shards int, run func(shard int, now int64) int) *ShardPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	p := &ShardPool{shards: shards, workers: workers, run: run}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the worker count the pool settled on.
func (p *ShardPool) Workers() int { return p.workers }

// launch starts the helpers: workers 1..W-1, one per block of the
// partition. Block 0 belongs to the goroutine that calls Cycle.
func (p *ShardPool) launch() {
	p.counts = make([]int64, p.workers*countStride)
	p.panics = make([]any, p.workers)
	p.stopped.Store(false)
	p.done.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		lo := w * p.shards / p.workers
		hi := (w + 1) * p.shards / p.workers
		go p.worker(w, lo, hi, p.epoch.Load())
	}
	p.running = true
}

// worker is one helper goroutine: wait for an epoch bump, run the assigned
// shard range, report completion, repeat until stopped.
func (p *ShardPool) worker(w, lo, hi int, seen uint32) {
	defer p.done.Done()
	for {
		// Start barrier: spin briefly, then sleep.
		spins := 0
		for p.epoch.Load() == seen {
			if p.stopped.Load() {
				return
			}
			spins++
			if spins < spinBudget {
				if spins&255 == 0 {
					runtime.Gosched()
				}
				continue
			}
			p.sleepers.Add(1)
			p.mu.Lock()
			for p.epoch.Load() == seen && !p.stopped.Load() {
				p.cond.Wait()
			}
			p.mu.Unlock()
			p.sleepers.Add(-1)
			break
		}
		if p.stopped.Load() {
			return
		}
		seen = p.epoch.Load()
		p.counts[w*countStride] = int64(p.runRange(w, lo, hi, p.now))
		p.pending.Add(-1)
	}
}

// runRange runs worker w's shards [lo, hi) and returns their summed
// results. A shard panic abandons the rest of the range and is kept for
// Cycle to re-raise.
func (p *ShardPool) runRange(w, lo, hi int, now int64) (n int) {
	defer func() {
		if e := recover(); e != nil {
			p.panics[w] = e
		}
	}()
	for s := lo; s < hi; s++ {
		n += p.run(s, now)
	}
	return n
}

// Cycle runs every shard once at cycle now and returns the summed shard
// results. The caller runs block 0 itself while the helpers run theirs,
// then waits for them: the pending-counter load carries the
// happens-before edge making all shard writes visible to the caller. If a
// shard panicked, Cycle panics with the same value once every worker has
// finished the cycle.
func (p *ShardPool) Cycle(now int64) int {
	if !p.running {
		p.launch()
	}
	if p.workers > 1 {
		p.now = now
		p.pending.Store(int32(p.workers - 1))
		p.epoch.Add(1)
		if p.sleepers.Load() != 0 {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		}
	}
	p.counts[0] = int64(p.runRange(0, 0, p.shards/p.workers, now))
	for spins := 1; p.pending.Load() != 0; spins++ {
		if spins&255 == 0 {
			runtime.Gosched()
		}
	}
	for _, e := range p.panics {
		if e != nil {
			clear(p.panics)
			panic(e)
		}
	}
	total := 0
	for w := 0; w < p.workers; w++ {
		total += int(p.counts[w*countStride])
	}
	return total
}

// Stop parks the pool: helper goroutines exit and the next Cycle relaunches
// them. Must not be called concurrently with Cycle.
func (p *ShardPool) Stop() {
	if !p.running {
		return
	}
	p.stopped.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
	p.done.Wait()
	p.counts, p.panics, p.running = nil, nil, false
}
