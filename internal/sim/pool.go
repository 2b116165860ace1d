package sim

import (
	"runtime"
	"sync"
)

// ShardPool runs a fixed set of independent shards on W workers, once per
// Cycle call; each shard is one station of the station-parallel cycle
// loop. The caller of Cycle is worker 0 and runs block 0 of a fixed block
// partition itself. W-1 helpers, launched by the first Cycle and gone
// after Stop, each block on a one-slot channel of cycle numbers. A round
// is one send per helper and one sync.WaitGroup: the send orders the
// caller's writes before the helper's shards, and Wait orders every
// shard's writes before Cycle returns.
//
// core dispatches a round only on cycles with at least poolMinDue due
// stations, 0.3–1.2 % of a 64-CPU machine's busy cycles. On a 2-vCPU host
// a round of 16 empty shards (BenchmarkShardPoolHandoff) costs 360–405 ns
// at 2 Ps and 620–660 ns at 4.
type ShardPool struct {
	shards  int
	workers int
	run     func(shard int, now int64) int

	start  []chan int64   // start[w-1] hands helper w its cycle; Stop closes it
	round  sync.WaitGroup // helpers still in the round (in Stop, still live)
	counts []int          // per worker, its shards' summed results; nil while stopped
	panics []any          // per worker, the value its shards panicked with
}

// NewShardPool builds a pool of min(workers, shards) workers; workers <= 0
// means GOMAXPROCS. No goroutines start until the first Cycle.
func NewShardPool(workers, shards int, run func(shard int, now int64) int) *ShardPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ShardPool{shards: shards, workers: min(workers, shards), run: run}
}

// Workers returns the worker count the pool settled on.
func (p *ShardPool) Workers() int { return p.workers }

// helper runs worker w's block once per cycle it receives, until Stop
// closes its channel.
func (p *ShardPool) helper(w int, start <-chan int64) {
	lo, hi := w*p.shards/p.workers, (w+1)*p.shards/p.workers
	for now := range start {
		p.counts[w] = p.runRange(w, lo, hi, now)
		p.round.Done()
	}
	p.round.Done()
}

// runRange runs worker w's shards [lo, hi) and returns their summed
// results. A shard panic abandons the rest of the range and is kept for
// Cycle to re-raise on the caller, where it can be recovered.
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
// then waits for them. If shards panicked, Cycle panics with the lowest
// worker's value once every worker has finished the cycle.
func (p *ShardPool) Cycle(now int64) int {
	if p.counts == nil { // the first Cycle, or the first since Stop
		p.counts, p.panics = make([]int, p.workers), make([]any, p.workers)
		p.start = make([]chan int64, p.workers-1)
		for w := range p.start {
			p.start[w] = make(chan int64, 1)
			go p.helper(w+1, p.start[w])
		}
	}
	p.round.Add(p.workers - 1)
	for _, start := range p.start {
		start <- now
	}
	p.counts[0] = p.runRange(0, 0, p.shards/p.workers, now)
	p.round.Wait()
	total := 0
	for w, e := range p.panics {
		if e != nil {
			clear(p.panics)
			panic(e)
		}
		total += p.counts[w]
	}
	return total
}

// Stop parks the pool: it returns once every helper has exited, and the
// next Cycle relaunches them. Must not be called concurrently with Cycle.
func (p *ShardPool) Stop() {
	if p.counts == nil {
		return
	}
	p.round.Add(p.workers - 1)
	for _, start := range p.start {
		close(start)
	}
	p.round.Wait()
	p.start, p.counts, p.panics = nil, nil, nil
}
