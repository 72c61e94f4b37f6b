package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/equiv"
	"dedc/internal/fault"
	"dedc/internal/pathtrace"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// The diagnose defaults for the path-trace cut, used by the root probe.
const (
	pathTraceKeep = 0.15
	pathTraceMin  = 10
)

// opResult is one op's outcome with the per-layer record of its calls.
type opResult struct {
	traced bool
	opS    float64 // op wall time: steps 1-4, not the check
	rssMiB float64 // the process's peak resident memory during the op
	// sums holds the per-layer metrics of this op by name: seconds of each
	// layer call and probe, and counts from returned structs and counters.
	sums   map[string]float64
	status string
	err    error // the library call's error, if any
	solved bool  // the call returned, was not truncated and passed the check
	// truncated is set when the search ended TimedOut, Cancelled or
	// BudgetExhausted: its time and memory are the budget's, not the
	// program's.
	truncated bool
	proven    bool
	// checkErr is set when an output the library reported as solved failed
	// the benchmark's own correctness check.
	checkErr error
	digest   string
}

// recorder times layer calls into the metric name+"_s" and, in the traced
// run, keeps their spans.
type recorder struct {
	op    int
	epoch time.Time
	sums  map[string]float64
	spans *[]span // nil in the untraced run
}

func (r *recorder) call(name, parent string, f func()) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.sums[name+"_s"] += t1.Sub(t0).Seconds()
	if r.spans != nil {
		*r.spans = append(*r.spans, span{
			Name: name, Parent: parent, Op: r.op,
			Start: t0.Sub(r.epoch).Seconds(), End: t1.Sub(r.epoch).Seconds(),
		})
	}
}

// runOp performs one whole diagnosis the way cmd/dedc does it, then checks
// its output. A returned error is a fault of the benchmark's own inputs.
func runOp(ctx context.Context, w workload, inst *instance, opID int, epoch time.Time, spans *[]span) (*opResult, error) {
	res := &opResult{traced: spans != nil, sums: map[string]float64{}}
	rec := &recorder{op: opID, epoch: epoch, sums: res.sums, spans: spans}
	var reg *telemetry.Registry
	if res.traced {
		reg = telemetry.NewRegistry()
		ctx = telemetry.WithTracer(ctx, telemetry.NewTracer(telemetry.Options{Registry: reg}))
	}
	octx, cancel := context.WithTimeout(ctx, w.budget)
	defer cancel()

	var (
		impl, ref *circuit.Circuit
		rerr      error
		vec       = inst.vectors
		refOut    [][]uint64
		out       outcome
	)
	dopt := diagnose.Options{MaxErrors: inst.cell.k + 1, Seed: vecSeed}
	if w.kind == stuckAtKind {
		dopt.MaxErrors = inst.cell.k
	}
	// Each op starts on a collected heap returned to the OS, so one op's
	// garbage is neither another's GC work nor part of its peak memory.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	rec.call("bench.read", "op", func() {
		if impl, rerr = bench.Read(bytes.NewReader(inst.impl)); rerr == nil {
			ref, rerr = bench.Read(bytes.NewReader(inst.ref))
		}
	})
	if rerr != nil {
		return nil, fmt.Errorf("%s: %w", inst.id, rerr)
	}
	if vec == nil {
		rec.call("tpg.build", "op", func() {
			vec = tpg.BuildVectorsContext(octx, impl, tpg.Options{Random: w.random, Seed: vecSeed, Deterministic: w.podem})
		})
	}
	pi, n := vec.PI, vec.N
	if w.kind != provenKind { // RepairProven simulates the spec itself
		rec.call("sim.ref", "op", func() { refOut = diagnose.DeviceOutputs(ref, pi, n) })
	}
	searchName := "diagnose.search"
	if w.kind == provenKind {
		searchName = "diagnose.cegar"
	}
	rec.call(searchName, "op", func() { out = search(octx, w, impl, ref, refOut, pi, n, dopt) })
	t1 := time.Now()
	res.opS = t1.Sub(t0).Seconds()
	res.rssMiB = peakRSSMiB()
	if spans != nil {
		*spans = append(*spans, span{Name: "op", Op: opID, Start: t0.Sub(epoch).Seconds(), End: t1.Sub(epoch).Seconds()})
	}
	res.status, res.err = out.status, out.err
	res.truncated = out.truncated
	res.proven = out.proven
	res.digest = out.digest()
	res.countStats(out, vec)
	if inst.vectors != nil {
		res.sums["tpg.setup_build_s"] = inst.buildS
	}

	// The correctness check runs after the op and is not part of its time.
	// An op reported solved with no repair or no tuple fails it.
	if out.err == nil && out.st.Solved() {
		if refOut == nil {
			refOut = diagnose.DeviceOutputs(ref, pi, n)
		}
		switch w.kind {
		case stuckAtKind:
			res.checkErr = checkTuples(impl, out.tuples, inst.cell.k, refOut, pi, n)
		default:
			res.checkErr = checkRepair(out.repaired, refOut, pi, n)
		}
		res.solved = res.checkErr == nil
		if res.solved && w.kind == provenKind {
			var eq *equiv.Result
			rec.call("equiv.final_check", "check", func() { eq, res.checkErr = equiv.Check(ref, out.repaired, equiv.Options{Ctx: ctx}) })
			switch {
			case res.checkErr != nil:
				res.solved = false
			case !eq.Equivalent && out.proven:
				res.checkErr = errors.New("a proven repair is not equivalent to the spec")
				res.solved = false
			case !eq.Equivalent:
				// An unproven repair may be wrong off V: the op is unsolved,
				// but the library claimed nothing false.
				res.status += " (not equivalent)"
				res.solved = false
			}
			if eq != nil {
				res.sums["equiv.final_conflicts"] = float64(eq.Conflicts)
			}
		}
	}
	if res.checkErr != nil {
		res.checkErr = fmt.Errorf("%s: %w", inst.id, res.checkErr)
	}
	if res.traced {
		for _, name := range []string{"sim.trials", "sim.events", "pathtrace.kept", "result.verify_failed", "sat.conflicts", "sat.propagations"} {
			res.sums[name] = float64(reg.Counter(name).Value())
		}
		probeRoot(rec, w.kind, impl, refOut, pi, n, dopt, out.stats.Schedule)
	}
	return res, nil
}

// outcome is the library's answer to one op, in a kind-independent form.
type outcome struct {
	err      error
	st       diagnose.Status
	status   string
	stats    diagnose.Stats
	repaired *circuit.Circuit
	sol      []string // the solution set, canonical
	tuples   []fault.Tuple
	proven   bool
	iters    int
	added    int
	// truncated: the search, or for RepairProven its last repair round,
	// ended TimedOut, Cancelled or BudgetExhausted.
	truncated bool
}

// truncations are the statuses of a search its budget or context stopped.
var truncations = []diagnose.Status{diagnose.StatusTimedOut, diagnose.StatusCancelled, diagnose.StatusBudgetExhausted}

func search(ctx context.Context, w workload, impl, ref *circuit.Circuit, refOut, pi [][]uint64, n int, dopt diagnose.Options) outcome {
	var o outcome
	switch w.kind {
	case stuckAtKind:
		var r *diagnose.StuckAtResult
		if r, o.err = diagnose.DiagnoseStuckAtContext(ctx, impl, refOut, pi, n, dopt); o.err == nil {
			o.st, o.stats, o.tuples = r.Status, r.Stats, r.Tuples
			for _, t := range r.Tuples {
				o.sol = append(o.sol, t.String())
			}
			sort.Strings(o.sol)
		}
	case repairKind:
		var r *diagnose.RepairResult
		if r, o.err = diagnose.RepairContext(ctx, impl, refOut, pi, n, dopt); o.err == nil {
			o.setRepair(r)
		}
	case provenKind:
		dopt.TimeBudget = w.budget
		var r *diagnose.ProvenResult
		if r, o.err = diagnose.RepairProven(impl, ref, pi, n, dopt, 0, 0); o.err == nil {
			o.setRepair(r.RepairResult)
			o.proven, o.iters, o.added = r.Proven, r.Iterations, r.AddedVectors
		}
	}
	o.status = o.st.String()
	o.truncated = o.err == nil && !o.st.Solved()
	if o.err != nil {
		o.status = "Error"
		// RepairProven returns a round's truncation as an error that names
		// the round's status.
		for _, st := range truncations {
			o.truncated = o.truncated || strings.Contains(o.err.Error(), "status="+st.String())
		}
	}
	return o
}

func (o *outcome) setRepair(r *diagnose.RepairResult) {
	o.st, o.stats, o.repaired = r.Status, r.Stats, r.Repaired
	for _, c := range r.Corrections {
		o.sol = append(o.sol, c.String())
	}
}

// digest hashes what identical inputs must reproduce: the status, the
// deterministic search counters and the canonical solution set. A timed-out
// op's counters depend on where the clock stopped, so only its status
// counts.
func (o *outcome) digest() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|", o.status)
	if o.st != diagnose.StatusTimedOut && o.st != diagnose.StatusCancelled {
		fmt.Fprintf(&b, "%+v|%v|%d|%d|%s", o.stats.Deterministic(), o.proven, o.iters, o.added, strings.Join(o.sol, ";"))
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

func (r *opResult) countStats(o outcome, vec *tpg.Result) {
	s, c := o.stats, r.sums
	c["diagnose.nodes"] = float64(s.Nodes)
	c["diagnose.trials"] = float64(s.Trials)
	c["diagnose.screened"] = float64(s.Screened)
	c["diagnose.candidates"] = float64(s.Candidates)
	c["diagnose.simulations"] = float64(s.Simulations)
	c["diagnose.verified"] = float64(s.Verified)
	c["diagnose.diag_s"] = s.DiagTime.Seconds()
	c["diagnose.corr_s"] = s.CorrTime.Seconds()
	c["diagnose.cegar_iterations"] = float64(o.iters)
	c["diagnose.cegar_added_vectors"] = float64(o.added)
	c["tpg.vectors"] = float64(vec.N)
	c["tpg.generated"] = float64(vec.Generated)
	c["tpg.aborted"] = float64(vec.Aborted)
	c["tpg.untestable"] = float64(vec.Untestable)
	c["tpg.backtracks"] = float64(vec.Backtracks)
}

// checkRepair re-simulates a repair against the spec responses over V in
// reversed order, so it shares no word layout with the search's engine.
func checkRepair(repaired *circuit.Circuit, specOut, pi [][]uint64, n int) error {
	if repaired == nil {
		return errors.New("no repaired netlist")
	}
	perm := sim.ReversedPerm(n)
	if !diagnose.Verify(repaired, sim.PermutePatterns(specOut, n, perm), sim.PermutePatterns(pi, n, perm), n) {
		return errors.New("repair does not reproduce the spec on V")
	}
	return nil
}

// checkTuples requires every reported tuple to explain the device and at
// least one of them to be no larger than the k faults injected, which by
// construction explain it.
func checkTuples(impl *circuit.Circuit, tuples []fault.Tuple, k int, devOut, pi [][]uint64, n int) error {
	small := false
	for _, t := range tuples {
		if !diagnose.ExplainsDevice(impl, t, devOut, pi, n) {
			return fmt.Errorf("tuple %s does not explain the device", t)
		}
		small = small || len(t) <= k
	}
	if !small {
		return fmt.Errorf("no tuple of at most %d faults", k)
	}
	return nil
}

// nullModel enumerates no corrections, so ExpandRoot under it times the
// diagnosis side (path trace and heuristic-1 ranking) alone.
type nullModel struct{}

func (nullModel) Enumerate(*circuit.Circuit, circuit.Line) []diagnose.Correction { return nil }

// probeRoot times the root node's layers outside the op, on the op's
// inputs: the path-trace cut, and ExpandRoot under a null model (heuristic
// 1) versus the op's model (correction screening), at the schedule step
// that ended the op.
func probeRoot(rec *recorder, k kind, impl *circuit.Circuit, refOut, pi [][]uint64, n int, dopt diagnose.Options, p diagnose.Params) {
	if refOut == nil {
		return
	}
	if p == (diagnose.Params{}) {
		p = diagnose.DefaultSchedule()[0]
	}
	var model diagnose.Model = diagnose.StuckAtModel{}
	if k != stuckAtKind {
		model = diagnose.NewErrorModel(impl, 0, 1)
	}
	vals := sim.Simulate(impl, pi, n)
	ctx := context.Background()
	rec.call("pathtrace.root", "probe", func() { pathtrace.Trace(impl, vals, refOut, n).Top(pathTraceKeep, pathTraceMin) })
	_, h1 := diagnose.ExpandRoot(ctx, impl, refOut, pi, n, nullModel{}, dopt, p)
	_, sc := diagnose.ExpandRoot(ctx, impl, refOut, pi, n, model, dopt, p)
	rec.sums["diagnose.root_h1_s"] = h1.DiagTime.Seconds()
	rec.sums["diagnose.root_screen_s"] = sc.CorrTime.Seconds()
}
