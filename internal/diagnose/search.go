package diagnose

import (
	"context"
	"math/bits"
	"sort"
	"strings"
	"time"

	"dedc/internal/circuit"
	"dedc/internal/pathtrace"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// Run rectifies netlist against the reference primary-output responses
// specOut (rows in netlist PO order) over the n patterns in pi, drawing
// corrections from model. The netlist itself is not modified.
func Run(netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) *Result {
	return RunContext(context.Background(), netlist, specOut, pi, n, model, opt)
}

// RunContext is Run under a context: cancellation and deadline expiry are
// observed at bounded intervals inside the decision-tree traversal and the
// per-node diagnosis/correction loops, unwinding cleanly with the solutions
// found so far and Result.Status explaining the stop.
func RunContext(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options) *Result {
	res, _ := runSearch(ctx, netlist, specOut, pi, n, model, opt, nil)
	return res
}

// runSearch is the shared body of RunContext and ResumeFromJournal. A non-nil
// checkpoint restores the crashed run's state (solutions, frontier, dedup set,
// budget accounting) before the schedule loop continues from the checkpointed
// step; the only error source is a checkpoint that does not replay against
// these inputs.
func runSearch(ctx context.Context, netlist *circuit.Circuit, specOut [][]uint64, pi [][]uint64, n int, model Model, opt Options, cp *Checkpoint) (*Result, error) {
	opt = opt.defaults()
	tr := telemetry.FromContext(ctx)
	ctx, runSpan := tr.StartSpan(ctx, "run",
		telemetry.Int("lines", netlist.NumLines()),
		telemetry.Int("n", n),
		telemetry.Int("max_errors", opt.MaxErrors),
		telemetry.Int("policy", int(opt.Policy)),
		telemetry.Bool("exact", opt.Exact),
		telemetry.Bool("resumed", cp != nil))
	r := &runState{
		ctx:     ctx,
		base:    netlist,
		specOut: specOut,
		pi:      pi,
		n:       n,
		w:       sim.Words(n),
		model:   model,
		opt:     opt,
		res:     &Result{},
		tr:      tr,
	}
	r.instrument()
	budgetTime := opt.TimeBudget
	if opt.Budget.Time > 0 && (budgetTime == 0 || opt.Budget.Time < budgetTime) {
		budgetTime = opt.Budget.Time
	}
	if budgetTime > 0 {
		r.deadline = time.Now().Add(budgetTime)
	}
	r.initWorkers() // after the deadline: the pool's stop predicate reads it
	runCtx := r.ctx
	startStep := 0
	if cp != nil {
		startStep = cp.Step
		r.stepIdx = cp.Step
		r.params = opt.Schedule[cp.Step]
		r.res.Stats.Schedule = r.params
		if err := r.restore(cp); err != nil {
			runSpan.End(telemetry.String("status", "resume-failed"))
			return nil, err
		}
	}
	for i := startStep; i < len(opt.Schedule); i++ {
		if r.stopNow() {
			break
		}
		p := opt.Schedule[i]
		r.stepIdx = i
		r.params = p
		r.res.Stats.Schedule = p
		if !r.hasResume {
			r.seen = map[string]bool{}
			r.minDepth = 0
		}
		// Nest this schedule step's spans under step[i]; the step context
		// only adds span identity, so cancellation polling is unchanged.
		stepCtx, stepSpan := tr.StartSpan(runCtx, telemetry.SpanName("step", i),
			telemetry.Float("h1", p.H1), telemetry.Float("h2", p.H2), telemetry.Float("h3", p.H3))
		r.ctx = stepCtx
		r.search()
		stepSpan.End(
			telemetry.Int("solutions", len(r.res.Solutions)),
			telemetry.Int("nodes", r.res.Stats.Nodes))
		r.ctx = runCtx
		if len(r.res.Solutions) > 0 {
			break
		}
	}
	r.finish()
	runSpan.End(
		telemetry.String("status", r.res.Status.String()),
		telemetry.Int("solutions", len(r.res.Solutions)),
		telemetry.Int("verified", r.res.Stats.Verified),
		telemetry.Int("nodes", r.res.Stats.Nodes),
		telemetry.Int64("simulations", r.res.Stats.Simulations),
		telemetry.Int64("candidates", r.res.Stats.Candidates),
		telemetry.Int64("diag_ns", r.res.Stats.DiagTime.Nanoseconds()),
		telemetry.Int64("corr_ns", r.res.Stats.CorrTime.Nanoseconds()))
	return r.res, nil
}

type runState struct {
	ctx     context.Context
	base    *circuit.Circuit
	specOut [][]uint64
	pi      [][]uint64
	n, w    int
	model   Model
	opt     Options
	params  Params
	res     *Result

	seen     map[string]bool
	minDepth int       // smallest solution size found so far (0 = none)
	deadline time.Time // zero = unlimited
	stepIdx  int       // current schedule step index (checkpoint payload)

	// Resume state, filled by restore() from a journal checkpoint and consumed
	// by the first search() call of a resumed run.
	hasResume      bool
	resumeFrontier []*node
	resumeRound    int
	resumeNodes    int

	halted     bool   // a stop condition fired; unwind
	haltStatus Status // why (sticky: first reason wins)
	checkTick  int    // fine-grained poll dampener (see stop)

	// Telemetry. tr is nil for untraced runs; the cached metric handles are
	// then nil too and no-op, so expand pays only dead branches.
	tr          *telemetry.Tracer
	cTrials     *telemetry.Counter   // sim.trials (wired into each node's engine)
	cEvents     *telemetry.Counter   // sim.events
	cKept       *telemetry.Counter   // pathtrace.kept — suspects surviving Top+widening
	cDropped    *telemetry.Counter   // pathtrace.dropped — marked lines cut away
	cVerified   *telemetry.Counter   // result.verified — solutions passing the gate
	cVerifyFail *telemetry.Counter   // result.verify_failed — solutions dropped by it
	hRect       *telemetry.Histogram // diagnose.h1_rect — per-suspect rectified bits

	// Evaluation workers (see initWorkers). Every per-node trial loop runs
	// on pool through fanOut, polling itemStop between items; ws holds the
	// per-worker scratch rows.
	pool      *sim.EnginePool
	poolBound *sim.Engine // engine the pool is currently bound to
	itemStop  func() bool
	ws        []workerRows
	ws1       [1]workerRows // backing array for the single-worker case

	isPOrow map[circuit.Line]int // line -> PO index
}

// workerRows is the per-worker set of reusable value-row buffers consumed by
// the per-node trial loops. One worker owns one entry for the duration of a
// fan-out, so the hot path allocates nothing.
type workerRows struct {
	forced []uint64 // H1: inverted-Verr row forced onto a suspect
	cand   []uint64 // screen: candidate-correction output row
	orBad  []uint64 // screen: OR of newly-erroneous bits (Vcorr)
	still  []uint64 // fixedVectors: OR of post-trial diffs
}

// instrument resolves the run's metric handles from the tracer's registry
// (all nil when the run is untraced).
func (r *runState) instrument() {
	reg := r.tr.Registry()
	r.cTrials = reg.Counter("sim.trials")
	r.cEvents = reg.Counter("sim.events")
	r.cKept = reg.Counter("pathtrace.kept")
	r.cDropped = reg.Counter("pathtrace.dropped")
	r.cVerified = reg.Counter("result.verified")
	r.cVerifyFail = reg.Counter("result.verify_failed")
	r.hRect = reg.Histogram("diagnose.h1_rect")
}

type node struct {
	corrs []Correction
	cands []RankedCorrection
	next  int
	fails int
}

// search runs one schedule step's traversal under the configured policy.
func (r *runState) search() {
	var frontier []*node
	var nodesThisStep, startRound int
	if r.hasResume {
		// A checkpoint restored this step's frontier (PolicyRounds only —
		// resume validation rejects the other policies): skip the fresh root
		// expansion and continue at the checkpointed round.
		frontier, nodesThisStep, startRound = r.resumeFrontier, r.resumeNodes, r.resumeRound
		r.hasResume, r.resumeFrontier = false, nil
		if startRound < 1 {
			startRound = 1
		}
	} else {
		root := r.expandTraced(nil)
		if root.fails == 0 {
			r.record(nil)
			return
		}
		switch r.opt.Policy {
		case PolicyDFS:
			r.searchDFS(root)
			return
		case PolicyBFS:
			r.searchBFS(root)
			return
		}
		frontier = []*node{root}
		nodesThisStep = 1
		startRound = 1
	}
	for round := startRound; round <= r.opt.MaxRounds && len(frontier) > 0; round++ {
		r.res.Stats.Rounds = round
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		// Round boundaries are the resume points: the frontier written here is
		// exactly the state a crashed run needs to re-enter this round.
		r.emitCheckpoint(round, frontier, nodesThisStep)
		snapshot := frontier
		frontier = frontier[:0:0]
		for _, nd := range snapshot {
			if r.stopNow() {
				return
			}
			if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
				continue // cannot yield a minimal-size solution anymore
			}
			for nd.next < len(nd.cands) {
				rc := nd.cands[nd.next]
				nd.next++
				corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
				key := setKey(corrs)
				if r.seen[key] {
					continue
				}
				r.seen[key] = true
				child := r.expandTraced(corrs)
				nodesThisStep++
				if child.fails == 0 {
					r.record(corrs)
					if !r.opt.Exact {
						return
					}
				} else if len(child.corrs) < r.maxDepth() {
					frontier = append(frontier, child)
				}
				break
			}
			if nd.next < len(nd.cands) {
				frontier = append(frontier, nd)
			}
			if nodesThisStep >= r.opt.MaxNodes {
				return
			}
		}
	}
}

// searchDFS greedily follows best-ranked corrections depth first with
// chronological backtracking — the pure-DFS ablation of §3.3.
func (r *runState) searchDFS(root *node) {
	stack := []*node{root}
	nodesThisStep := 1
	for len(stack) > 0 && nodesThisStep < r.opt.MaxNodes {
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		nd := stack[len(stack)-1]
		if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
			stack = stack[:len(stack)-1]
			continue
		}
		child := (*node)(nil)
		for nd.next < len(nd.cands) {
			rc := nd.cands[nd.next]
			nd.next++
			corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
			key := setKey(corrs)
			if r.seen[key] {
				continue
			}
			r.seen[key] = true
			child = r.expandTraced(corrs)
			nodesThisStep++
			break
		}
		if child == nil {
			stack = stack[:len(stack)-1]
			continue
		}
		if child.fails == 0 {
			r.record(child.corrs)
			if !r.opt.Exact {
				return
			}
			continue
		}
		if len(child.corrs) < r.maxDepth() {
			stack = append(stack, child)
		}
	}
}

// searchBFS expands every candidate of every node level by level — the
// naive-BFS ablation of §3.3.
func (r *runState) searchBFS(root *node) {
	queue := []*node{root}
	nodesThisStep := 1
	for len(queue) > 0 && nodesThisStep < r.opt.MaxNodes {
		if r.stopNow() {
			return
		}
		if !r.opt.Exact && len(r.res.Solutions) > 0 {
			return
		}
		nd := queue[0]
		queue = queue[1:]
		if r.minDepth > 0 && len(nd.corrs)+1 > r.minDepth {
			continue
		}
		for nd.next < len(nd.cands) && nodesThisStep < r.opt.MaxNodes {
			rc := nd.cands[nd.next]
			nd.next++
			corrs := append(append([]Correction(nil), nd.corrs...), rc.C)
			key := setKey(corrs)
			if r.seen[key] {
				continue
			}
			r.seen[key] = true
			child := r.expandTraced(corrs)
			nodesThisStep++
			if child.fails == 0 {
				r.record(corrs)
				if !r.opt.Exact {
					return
				}
				continue
			}
			if len(child.corrs) < r.maxDepth() {
				queue = append(queue, child)
			}
		}
	}
}

// maxDepth is the current tuple-size bound: MaxErrors, tightened to the
// minimal solution size in exact mode.
func (r *runState) maxDepth() int {
	if r.opt.Exact && r.minDepth > 0 && r.minDepth < r.opt.MaxErrors {
		return r.minDepth
	}
	return r.opt.MaxErrors
}

func (r *runState) record(corrs []Correction) {
	if !r.opt.NoVerify {
		if !r.verifySolution(corrs) {
			// The incremental engine claims this tuple rectifies every vector
			// but an independent from-scratch re-simulation disagrees: drop it
			// rather than report an unproven repair.
			r.cVerifyFail.Inc()
			if r.tr != nil {
				r.tr.Event(r.ctx, "verify_failed",
					telemetry.Int("size", len(corrs)),
					telemetry.Attr{Key: "corrections", Value: corrNames(corrs)})
			}
			return
		}
		r.cVerified.Inc()
		r.res.Stats.Verified++
	}
	r.res.Solutions = append(r.res.Solutions, Solution{Corrections: corrs})
	if r.minDepth == 0 || len(corrs) < r.minDepth {
		r.minDepth = len(corrs)
	}
	if r.tr != nil {
		r.tr.Event(r.ctx, "solution",
			telemetry.Int("size", len(corrs)),
			telemetry.Bool("verified", !r.opt.NoVerify),
			telemetry.Attr{Key: "corrections", Value: corrNames(corrs)})
	}
}

func corrNames(corrs []Correction) []string {
	names := make([]string, len(corrs))
	for i, c := range corrs {
		names[i] = c.String()
	}
	return names
}

// finish sets the outcome status, deduplicates solutions and, in exact
// mode, keeps only the minimal-cardinality ones.
func (r *runState) finish() {
	switch {
	case r.halted:
		r.res.Status = r.haltStatus
	case len(r.res.Solutions) > 0 && !r.opt.Exact:
		r.res.Status = StatusFirstSolution
	default:
		r.res.Status = StatusComplete
	}
	sols := r.res.Solutions
	if len(sols) == 0 {
		return
	}
	minSize := len(sols[0].Corrections)
	for _, s := range sols {
		if len(s.Corrections) < minSize {
			minSize = len(s.Corrections)
		}
	}
	seen := map[string]bool{}
	var out []Solution
	for _, s := range sols {
		if r.opt.Exact && len(s.Corrections) > minSize {
			continue
		}
		k := setKey(s.Corrections)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	r.res.Solutions = out
}

func setKey(corrs []Correction) string {
	ss := make([]string, len(corrs))
	for i, c := range corrs {
		ss[i] = c.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, "|")
}

// expandTraced is expand plus accounting: it owns the Stats.Nodes increment
// (every expansion is exactly one search node) and, when the run is traced,
// wraps the expansion in a node span whose journal events carry the phase
// timings and candidate ranking for this node.
func (r *runState) expandTraced(corrs []Correction) *node {
	idx := r.res.Stats.Nodes
	r.res.Stats.Nodes++
	if r.tr == nil {
		return r.expand(corrs)
	}
	before := r.res.Stats
	_, span := r.tr.StartSpan(r.ctx, telemetry.SpanName("node", idx),
		telemetry.Int("depth", len(corrs)))
	nd := r.expand(corrs)
	via := ""
	if len(corrs) > 0 {
		via = corrs[len(corrs)-1].String()
	}
	top := nd.cands
	if len(top) > 8 {
		top = top[:8]
	}
	names := make([]string, len(top))
	ranks := make([]telemetry.Attr, 0, 1)
	for i, rc := range top {
		names[i] = rc.C.String()
	}
	if len(names) > 0 {
		ranks = append(ranks, telemetry.Attr{Key: "top", Value: names})
	}
	span.Event("candidates", append([]telemetry.Attr{
		telemetry.Int("total", len(nd.cands)),
	}, ranks...)...)
	after := r.res.Stats
	span.End(
		telemetry.String("via", via),
		telemetry.Int("fails", nd.fails),
		telemetry.Int("cands", len(nd.cands)),
		telemetry.Int64("sims", after.Simulations-before.Simulations),
		telemetry.Int64("cand_seen", after.Candidates-before.Candidates),
		telemetry.Int("screened", after.Screened-before.Screened),
		telemetry.Int64("diag_ns", (after.DiagTime-before.DiagTime).Nanoseconds()),
		telemetry.Int64("corr_ns", (after.CorrTime-before.CorrTime).Nanoseconds()))
	return nd
}

// expand materializes the netlist with the given corrections applied,
// simulates it, and computes the node's ranked correction candidates via the
// paper's two-step diagnosis and screened correction procedure.
func (r *runState) expand(corrs []Correction) *node {
	nd := &node{corrs: corrs}
	ckt := r.base.Clone()
	for _, c := range corrs {
		if err := c.Apply(ckt); err != nil {
			// A correction that replays illegally yields a dead node.
			nd.fails = r.n + 1
			return nd
		}
	}
	e := sim.NewEngine(ckt, r.pi, r.n)
	e.CTrials, e.CEvents = r.cTrials, r.cEvents
	r.res.Stats.Simulations++

	// Failing-vector bookkeeping.
	failMask := make([]uint64, e.W)
	diff := make([][]uint64, len(ckt.POs))
	errBits := 0
	for i, po := range ckt.POs {
		d := make([]uint64, e.W)
		row := e.BaseVal(po)
		for w := 0; w < e.W; w++ {
			d[w] = row[w] ^ r.specOut[i][w]
		}
		d[e.W-1] &= sim.TailMask(r.n)
		diff[i] = d
		errBits += popcount(d)
		for w := 0; w < e.W; w++ {
			failMask[w] |= d[w]
		}
	}
	nd.fails = popcount(failMask)
	if nd.fails == 0 {
		return nd
	}
	if len(corrs) >= r.maxDepth() {
		return nd // depth limit: no candidates needed
	}
	poIndex := make(map[circuit.Line]int, len(ckt.POs))
	for i, po := range ckt.POs {
		poIndex[po] = i
	}
	passCount := r.n - nd.fails

	// --- Diagnosis: path trace, then heuristic 1. ---
	t0 := time.Now()
	restorePhase := r.tr.Phase(r.ctx, "diagnosis")
	var suspects []circuit.Line
	if r.opt.DisablePathTrace {
		for l := 0; l < ckt.NumLines(); l++ {
			suspects = append(suspects, circuit.Line(l))
		}
	} else {
		pt := pathtrace.Trace(ckt, e.Values(), r.specOut, r.n)
		suspects = pt.Top(r.opt.PathTraceKeep, r.opt.MinKeep)
		// Theorem-1 pigeonhole widening: under the current (relaxed)
		// assumption that a single error need only explain an H1 fraction of
		// the failing behaviour, every line marked on at least H1·Fail
		// traces is a legitimate suspect even when the top-percentage cut
		// dropped it — with multiple errors the highest path-trace counts
		// concentrate on downstream reconvergence regions, not the error
		// sites themselves.
		if r.params.H1 < 1 {
			seen := make(map[circuit.Line]bool, len(suspects))
			for _, l := range suspects {
				seen[l] = true
			}
			for _, l := range pt.AboveFraction(r.params.H1) {
				if !seen[l] {
					suspects = append(suspects, l)
				}
			}
		}
		if r.cKept != nil {
			r.cKept.Add(int64(len(suspects)))
			r.cDropped.Add(int64(pt.MarkedCount() - len(suspects)))
		}
	}

	ec := &expandCtx{
		e:         e,
		ckt:       ckt,
		failMask:  failMask,
		diff:      diff,
		poIndex:   poIndex,
		errBits:   errBits,
		fails:     nd.fails,
		passCount: passCount,
	}
	lines := r.rankSuspects(ec, suspects)
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].rectified != lines[j].rectified {
			return lines[i].rectified > lines[j].rectified
		}
		return lines[i].l < lines[j].l
	})
	if len(lines) > r.opt.MaxSuspects {
		lines = lines[:r.opt.MaxSuspects]
	}
	r.res.Stats.DiagTime += time.Since(t0)
	restorePhase()

	// --- Correction: enumerate, screen (h2 then h3), rank. ---
	t1 := time.Now()
	restorePhase = r.tr.Phase(r.ctx, "correction")
	cands := r.screenCorrections(ec, lines)
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Rank != cands[j].Rank {
			return cands[i].Rank > cands[j].Rank
		}
		return cands[i].C.String() < cands[j].C.String()
	})
	if len(cands) > r.opt.MaxCorrectionsPerNode {
		cands = cands[:r.opt.MaxCorrectionsPerNode]
	}
	nd.cands = cands
	r.res.Stats.CorrTime += time.Since(t1)
	restorePhase()
	return nd
}

// expandCtx bundles the per-node state shared by the diagnosis and
// correction loops of one expansion: the node's engine, the failing-vector
// bookkeeping, and the counts the screens and scores are computed against.
// Everything here is read-only during a fan-out.
type expandCtx struct {
	e         *sim.Engine
	ckt       *circuit.Circuit
	failMask  []uint64
	diff      [][]uint64
	poIndex   map[circuit.Line]int
	errBits   int
	fails     int
	passCount int
}

type scoredLine struct {
	l         circuit.Line
	rectified int
}

// rankSuspects runs heuristic 1 over the surviving path-trace lines: invert
// each suspect's Verr bit-list (its values on failing vectors), propagate,
// and keep the lines whose maximum effect rectifies at least H1·errBits
// erroneous output bits. The trials fan out over the engine pool and fold
// in suspect order.
func (r *runState) rankSuspects(ec *expandCtx, suspects []circuit.Line) []scoredLine {
	rects := make([]int, len(suspects))
	var lines []scoredLine
	r.fanOut(ec.e, len(suspects), func(e *sim.Engine, ws *workerRows, i int) {
		rects[i] = r.h1Trial(e, ws, ec, suspects[i])
	}, func(i int) {
		r.res.Stats.Simulations++
		r.hRect.Observe(int64(rects[i]))
		if float64(rects[i]) >= r.params.H1*float64(ec.errBits)-1e-9 {
			lines = append(lines, scoredLine{suspects[i], rects[i]})
		}
	})
	return lines
}

// h1Trial forces the inverted-Verr row onto l and counts the erroneous
// output bits the propagation rectifies. Safe for concurrent use when each
// worker owns its engine and workerRows.
func (r *runState) h1Trial(e *sim.Engine, ws *workerRows, ec *expandCtx, l circuit.Line) int {
	row := e.BaseVal(l)
	for w := 0; w < e.W; w++ {
		ws.forced[w] = row[w] ^ ec.failMask[w]
	}
	changed := e.Trial(l, ws.forced[:e.W])
	rect := 0
	for _, x := range changed {
		if i, ok := ec.poIndex[x]; ok {
			rect += r.rectifiedBits(e, x, ec.diff[i], i)
		}
	}
	return rect
}

// screenOutcome is one candidate's screening verdict, recorded by index so
// a fan-out can be folded into stats and rankings in enumeration order.
type screenOutcome uint8

const (
	screenRejected screenOutcome = iota // failed the Theorem-1 complement test
	screenNoChange                      // trial identical to base: dead candidate
	screenNewFails                      // failed the Vcorr newly-failing test
	screenKept                          // survives; rect/newFails/fixes valid
)

// screenResult carries the per-candidate counts the ranking formula needs.
type screenResult struct {
	outcome  screenOutcome
	rect     int32
	newFails int32
	fixes    int32
}

// screenCorrections enumerates the correction model at every ranked suspect
// into one flat work list and screens each candidate: the Theorem-1
// complement test (one local gate evaluation), then a full trial
// propagation for the Vcorr screen and the ranking metrics. The screens fan
// out over the engine pool; stats accounting and ranking fold on the
// calling goroutine in enumeration order.
func (r *runState) screenCorrections(ec *expandCtx, lines []scoredLine) []RankedCorrection {
	var work []Correction
	for _, sl := range lines {
		work = append(work, r.model.Enumerate(ec.ckt, sl.l)...)
	}
	outs := make([]screenResult, len(work))
	var cands []RankedCorrection
	r.fanOut(ec.e, len(work), func(e *sim.Engine, ws *workerRows, i int) {
		outs[i] = r.screenOne(e, ws, ec, work[i])
	}, func(i int) {
		r.res.Stats.Candidates++
		if done, rc := r.foldScreen(ec, work[i], outs[i]); done {
			cands = append(cands, rc)
		}
	})
	return cands
}

// foldScreen accounts one screened candidate into Stats and, for survivors,
// produces its ranked form. It is the screen's fold rule, which is what
// keeps stats and rankings identical at any worker count.
func (r *runState) foldScreen(ec *expandCtx, corr Correction, sr screenResult) (bool, RankedCorrection) {
	switch sr.outcome {
	case screenRejected:
		r.res.Stats.Screened++
		return false, RankedCorrection{}
	case screenNoChange:
		r.res.Stats.Simulations++
		return false, RankedCorrection{}
	case screenNewFails:
		r.res.Stats.Simulations++
		r.res.Stats.Trials++
		return false, RankedCorrection{}
	}
	r.res.Stats.Simulations++
	r.res.Stats.Trials++
	return true, r.rankCorrection(ec, corr, sr)
}

// screenOne runs the two screens on a single candidate correction using the
// given engine and scratch rows. It mutates only the engine's trial state
// and ws, so distinct workers can screen distinct candidates concurrently.
func (r *runState) screenOne(e *sim.Engine, ws *workerRows, ec *expandCtx, corr Correction) screenResult {
	target := corr.Target()
	corr.NewValues(e, ws.cand[:e.W])
	// Theorem-1 screen: the correction must complement at least h2·|Verr|
	// bits of the target's erroneous bit-list.
	base := e.BaseVal(target)
	comp := 0
	for w := 0; w < e.W; w++ {
		comp += bits.OnesCount64((ws.cand[w] ^ base[w]) & ec.failMask[w])
	}
	if float64(comp) < r.params.H2*float64(ec.fails)-1e-9 {
		return screenResult{outcome: screenRejected}
	}
	// Full trial for the Vcorr screen and the ranking metrics. Multi-target
	// corrections (bridging faults) force the same candidate row onto every
	// affected net at once.
	var changed []circuit.Line
	if mt, ok := corr.(interface{ Targets() []circuit.Line }); ok {
		targets := mt.Targets()
		rows := make([][]uint64, len(targets))
		for i := range rows {
			rows[i] = ws.cand[:e.W]
		}
		changed = e.TrialMulti(targets, rows)
	} else {
		changed = e.Trial(target, ws.cand[:e.W])
	}
	if len(changed) == 0 {
		return screenResult{outcome: screenNoChange}
	}
	rect := 0
	for w := 0; w < e.W; w++ {
		ws.orBad[w] = 0
	}
	for _, x := range changed {
		i, ok := ec.poIndex[x]
		if !ok {
			continue
		}
		rect += r.rectifiedBits(e, x, ec.diff[i], i)
		tv := e.TrialVal(x)
		spec := r.specOut[i]
		for w := 0; w < e.W; w++ {
			ws.orBad[w] |= (tv[w] ^ spec[w]) &^ ec.failMask[w]
		}
	}
	ws.orBad[e.W-1] &= sim.TailMask(r.n)
	newFails := popcount(ws.orBad[:e.W])
	if float64(newFails) > (1-r.params.H3)*float64(ec.passCount)+1e-9 {
		return screenResult{outcome: screenNewFails}
	}
	fixes := r.fixedVectors(e, ws, ec.failMask)
	return screenResult{
		outcome:  screenKept,
		rect:     int32(rect),
		newFails: int32(newFails),
		fixes:    int32(fixes),
	}
}

// rankCorrection turns a kept candidate's screen counts into the ranked
// form. h1score blends the two readings of "erroneous primary outputs
// rectified": the fraction of erroneous output bits corrected and the
// fraction of failing vectors fully fixed. The vector term is what makes
// corrections that complete a repair outrank partial bit-chasers (the
// paper's iteration goal is reducing the number of erroneous vectors).
func (r *runState) rankCorrection(ec *expandCtx, corr Correction, sr screenResult) RankedCorrection {
	vRatio := float64(ec.fails) / float64(r.n)
	h1s := 0.0
	if ec.errBits > 0 {
		h1s = float64(sr.rect) / float64(ec.errBits) / 2
	}
	h1s += float64(sr.fixes) / float64(ec.fails) / 2
	h3s := 1.0
	if ec.passCount > 0 {
		h3s = 1 - float64(sr.newFails)/float64(ec.passCount)
	}
	return RankedCorrection{
		C:        corr,
		Rank:     (1-vRatio)*h3s + vRatio*h1s,
		H1Score:  h1s,
		H3Score:  h3s,
		NewFails: int(sr.newFails),
		Fixes:    int(sr.fixes),
	}
}

// rectifiedBits counts erroneous bits of PO x (diff row d) that the current
// trial turns correct.
func (r *runState) rectifiedBits(e *sim.Engine, x circuit.Line, d []uint64, poIdx int) int {
	tv := e.TrialVal(x)
	spec := r.specOut[poIdx]
	rect := 0
	for w := 0; w < e.W; w++ {
		rect += bits.OnesCount64(d[w] &^ (tv[w] ^ spec[w]))
	}
	return rect
}

// fixedVectors counts failing vectors that the current trial fully
// rectifies (all POs correct). It works entirely in ws scratch so the
// screening hot loop stays allocation-free.
func (r *runState) fixedVectors(e *sim.Engine, ws *workerRows, failMask []uint64) int {
	// stillBad = OR over POs of their post-trial diff. TrialVal falls back to
	// the base row for POs the trial never reached, so tv^spec is the
	// post-trial diff for changed and unchanged outputs alike.
	still := ws.still[:e.W]
	for w := range still {
		still[w] = 0
	}
	for i, po := range e.C.POs {
		tv := e.TrialVal(po)
		spec := r.specOut[i]
		for w := 0; w < e.W; w++ {
			still[w] |= tv[w] ^ spec[w]
		}
	}
	fixed := 0
	for w := 0; w < e.W; w++ {
		fixed += bits.OnesCount64(failMask[w] &^ still[w])
	}
	return fixed
}

func popcount(row []uint64) int {
	t := 0
	for _, x := range row {
		t += bits.OnesCount64(x)
	}
	return t
}
