package sim

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// EnginePool runs trial workloads across N worker Engines that share one
// read-only base simulation (value matrix, level table, fanout table) while
// owning private trial scratch, so trials proceed concurrently with zero
// locking on the hot path. Work is distributed by an atomic index counter:
// fast workers steal the items slow workers have not claimed yet, and the
// caller's goroutine itself serves as worker 0, so a pool of size 1 is a
// plain sequential loop with no goroutines at all.
//
// Each is ordered: per-item work may run on any worker, but its results are
// folded on the caller in item order, which is what makes pooled runs
// bit-identical to sequential ones (see package diagnose).
//
// A pool is bound to one parent engine at a time via Bind and must not be
// used concurrently with itself; per-worker scratch is reused across Bind
// calls so moving the pool between engines of the same circuit shape is
// allocation-free after warm-up.
type EnginePool struct {
	size    int
	engines []*Engine // engines[0] is the bound parent; the rest are forks

	// Pool telemetry, nil (no-op) until Instrument is called.
	CBatches *telemetry.Counter // sim.pool.batches — Each invocations
	CTrials  *telemetry.Counter // sim.pool.trials — items run through Each
	CSteals  *telemetry.Counter // sim.pool.steals — items run by helper workers
}

// NewEnginePool returns a pool of the given size (clamped to at least 1).
// Workers are materialized lazily on the first Bind.
func NewEnginePool(size int) *EnginePool {
	if size < 1 {
		size = 1
	}
	return &EnginePool{size: size, engines: make([]*Engine, size)}
}

// Size returns the worker count.
func (p *EnginePool) Size() int { return p.size }

// Instrument wires the pool counters to reg ("sim.pool.batches",
// "sim.pool.trials", "sim.pool.steals"). A nil registry detaches them.
func (p *EnginePool) Instrument(reg *telemetry.Registry) {
	p.CBatches = reg.Counter("sim.pool.batches")
	p.CTrials = reg.Counter("sim.pool.trials")
	p.CSteals = reg.Counter("sim.pool.steals")
}

// Bind points the pool at a parent engine: worker 0 runs on the parent
// itself, workers 1..size-1 on forks sharing its base state. Existing forks
// are rebound in place (reusing their scratch slabs) when the circuit shape
// matches. Bind also warms the parent circuit's derived tables (levels,
// fanout) on the calling goroutine so forks never race on lazy caches.
func (p *EnginePool) Bind(root *Engine) {
	p.engines[0] = root
	for i := 1; i < p.size; i++ {
		if p.engines[i] == nil {
			p.engines[i] = root.Fork()
		} else {
			p.engines[i] = p.engines[i].rebind(root)
		}
	}
}

// minParallelItems is the smallest fan-out worth starting helper goroutines
// for: below it, the hand-off costs more than the items themselves, so Each
// runs them inline on the caller.
const minParallelItems = 8

// Each runs work(engine, worker, i) for the items i in [0, n) and fold(i) on
// the caller's goroutine for exactly the prefix of items that ran, in index
// order. work may run on any worker, so it must write results only to
// per-index or per-worker storage; fold may then read them and touch caller
// state freely.
//
// stop, when non-nil, is polled before each item is claimed; once it returns
// true no further items are claimed (items already claimed still finish).
// With one worker (a pool of size 1, or fewer than minParallelItems items)
// the loop is inline and fold(i) runs right after work(i), before stop is
// polled for i+1, so a stop predicate that reads what fold accumulates cuts
// the loop at an exact item. With helper workers stop must be safe for
// concurrent use, and the folds run after every worker has quiesced. A panic
// in work on any worker stops the fan-out and is re-raised on the caller's
// goroutine, so supervision layers that recover caller panics keep working.
func (p *EnginePool) Each(stop func() bool, n int, work func(e *Engine, worker, i int), fold func(i int)) {
	if n <= 0 {
		return
	}
	p.CBatches.Inc()
	if p.size == 1 || n < minParallelItems {
		e := p.engines[0]
		ran := 0
		for ; ran < n; ran++ {
			if stop != nil && stop() {
				break
			}
			work(e, 0, ran)
			fold(ran)
		}
		p.CTrials.Add(int64(ran))
		return
	}
	ran, stolen := fanOut(min(p.size, n), n, stop, func(worker, i int) {
		work(p.engines[worker], worker, i)
	})
	p.CTrials.Add(int64(ran))
	p.CSteals.Add(int64(stolen))
	for i := 0; i < ran; i++ {
		fold(i)
	}
}

// fanOut runs body(worker, i) for the items i in [0, n) on k workers that
// claim items by atomic index. The caller's goroutine is worker 0; workers
// 1..k-1 are goroutines labelled for CPU profiles (the journal stays
// worker-silent by design: workers must not emit events or the journal
// would depend on the worker count). stop, when non-nil, is polled before
// each claim. A claimed item always runs, so the items that ran are exactly
// [0, ran); stolen counts those run by workers other than the caller. The
// first panic on any worker stops further claims and is re-raised on the
// caller once every worker has returned. This is the package's only
// goroutine fan-out.
func fanOut(k, n int, stop func() bool, body func(worker, i int)) (ran, stolen int) {
	var (
		next    atomic.Int64
		helped  atomic.Int64
		stopped atomic.Bool
		panicAt atomic.Pointer[poolPanic]
		wg      sync.WaitGroup
	)
	loop := func(worker int) {
		defer func() {
			if v := recover(); v != nil {
				panicAt.CompareAndSwap(nil, &poolPanic{worker: worker, value: v})
				stopped.Store(true)
			}
		}()
		done := 0
		for !stopped.Load() && (stop == nil || !stop()) {
			i := int(next.Add(1)) - 1
			if i >= n {
				break
			}
			body(worker, i)
			done++
		}
		if worker != 0 {
			helped.Add(int64(done))
		}
	}
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			pprof.Do(context.Background(), pprof.Labels("dedc.pool.worker", strconv.Itoa(worker)),
				func(context.Context) { loop(worker) })
		}(w)
	}
	loop(0)
	wg.Wait()
	if pp := panicAt.Load(); pp != nil {
		panic(fmt.Sprintf("sim: pool worker %d: %v", pp.worker, pp.value))
	}
	return min(int(next.Load()), n), int(helped.Load())
}

type poolPanic struct {
	worker int
	value  any
}

// simParallelMinWords is the smallest word count per worker that makes
// sharding a batch simulation worthwhile; below it SimulateParallel falls
// back to the sequential Simulate.
const simParallelMinWords = 8

// SimulateParallel is Simulate with the pattern words sharded across
// workers: each shard runs the full topological walk over its own word
// range, so the result is bit-identical to Simulate for any worker count
// (per-pattern values never depend on other patterns). Narrow batches fall
// back to the sequential path.
func SimulateParallel(c *circuit.Circuit, pi [][]uint64, n, workers int) [][]uint64 {
	w := Words(n)
	if workers > w/simParallelMinWords {
		workers = w / simParallelMinWords
	}
	if workers <= 1 {
		return Simulate(c, pi, n)
	}
	val := make([][]uint64, c.NumLines())
	storage := make([]uint64, c.NumLines()*w)
	for i := range val {
		val[i] = storage[i*w : (i+1)*w]
	}
	for i, p := range c.PIs {
		copy(val[p], pi[i][:w])
	}
	topo := c.Topo() // warm the cache on the calling goroutine
	fanOut(workers, workers, nil, func(_, sh int) {
		lo, hi := sh*w/workers, (sh+1)*w/workers
		scratch := make([][]uint64, 0, 8)
		for _, l := range topo {
			g := &c.Gates[l]
			if g.Type == circuit.Input {
				continue
			}
			scratch = scratch[:0]
			for _, f := range g.Fanin {
				scratch = append(scratch, val[f][lo:hi])
			}
			EvalGateInto(g.Type, val[l][lo:hi], hi-lo, scratch...)
		}
	})
	return val
}
