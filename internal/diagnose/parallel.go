package diagnose

import (
	"sync/atomic"
	"time"

	"dedc/internal/sim"
)

// initWorkers sets up the run's evaluation workers from Options.Workers: the
// engine pool every per-node trial loop runs on, the stop predicate its
// fan-outs poll, and the per-worker scratch rows. Counted budgets pin the
// pool to one worker: they truncate the search at an exact work item, which
// needs each item folded into Stats before the next stop poll.
func (r *runState) initWorkers() {
	b := r.opt.Budget
	workers := r.opt.Workers
	if workers < 1 || b.MaxSimulations != 0 || b.MaxNodes != 0 || b.MaxCandidates != 0 {
		workers = 1
	}
	r.pool = sim.NewEnginePool(workers)
	r.pool.Instrument(r.tr.Registry())
	r.itemStop = r.stop
	if workers > 1 {
		r.itemStop = r.poolStop()
	}
	// All per-worker rows live in one shared slab; the sequential case reuses
	// the inline backing array, so scratch setup is one allocation.
	if workers == 1 {
		r.ws = r.ws1[:]
	} else {
		r.ws = make([]workerRows, workers)
	}
	rows := make([]uint64, workers*4*r.w)
	for i := range r.ws {
		q := rows[i*4*r.w:]
		r.ws[i] = workerRows{
			forced: q[0*r.w : 1*r.w],
			cand:   q[1*r.w : 2*r.w],
			orBad:  q[2*r.w : 3*r.w],
			still:  q[3*r.w : 4*r.w],
		}
	}
}

// poolStop builds the worker-safe stop predicate of a multi-worker pool: it
// polls only the context and the wall-clock deadline (counted budgets pin
// the pool to one worker) and touches no runState fields, so any worker may
// call it concurrently. fanOut folds the actual halt status on the caller
// afterwards (stopNow), mirroring how the sequential loop records why it
// unwound.
func (r *runState) poolStop() func() bool {
	ctx, deadline := r.ctx, r.deadline
	if ctx == nil && deadline.IsZero() {
		return nil
	}
	var tick atomic.Int64
	var expired atomic.Bool
	return func() bool {
		if expired.Load() {
			return true
		}
		if tick.Add(1)%stopCheckInterval != 0 {
			return false
		}
		if ctx != nil && ctx.Err() != nil {
			expired.Store(true)
			return true
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			expired.Store(true)
			return true
		}
		return false
	}
}

// fanOut runs one per-node trial loop over the engine pool bound to e:
// work(engine, rows, i) for each item on any worker, then fold(i) on this
// goroutine in item order for exactly the items that ran. Every Stats
// update belongs in fold, which is what keeps Stats, rankings and counted
// truncation points identical at any worker count. A halted run skips the
// loop, as the sequential loop's first stop poll would.
func (r *runState) fanOut(e *sim.Engine, n int, work func(e *sim.Engine, ws *workerRows, i int), fold func(i int)) {
	if r.halted {
		return
	}
	if r.poolBound != e {
		// Nodes are expanded one at a time, so one bind per engine suffices;
		// rebinding reuses the workers' scratch slabs.
		r.pool.Bind(e)
		r.poolBound = e
	}
	r.pool.Each(r.itemStop, n, func(e *sim.Engine, w, i int) { work(e, &r.ws[w], i) }, fold)
	if r.pool.Size() > 1 {
		r.stopNow() // fold a mid-fan-out cancellation/deadline into halt status
	}
}
