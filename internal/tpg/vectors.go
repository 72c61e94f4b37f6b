package tpg

import (
	"context"
	"math/rand"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
)

// Options configures BuildVectors.
type Options struct {
	// Random is the number of random patterns (the paper uses 6,000–10,000).
	Random int
	Seed   int64
	// Deterministic enables the PODEM pass over undetected collapsed faults.
	Deterministic bool
	// BacktrackLimit for the PODEM pass (default 2000).
	BacktrackLimit int
}

// Result carries the produced vector set and generation statistics.
type Result struct {
	PI [][]uint64 // one row per primary input
	N  int        // pattern count

	Coverage   float64 // stuck-at coverage of collapsed faults
	Generated  int     // deterministic tests produced
	Untestable int     // faults proven redundant
	Aborted    int     // faults abandoned at the backtrack limit
	Backtracks int64   // total PODEM backtracks across the deterministic pass
	// Cancelled is set when the deterministic pass stopped early on context
	// cancellation; the vector set holds everything produced up to that
	// point and Coverage reflects the partial set.
	Cancelled bool
}

// BuildVectors produces the vector set V used by the diagnosis experiments:
// Random patterns first, then (optionally) one PODEM search for every
// collapsed stuck-at fault the random set missed. Every such fault gets its
// own search; a generated test is not fault-simulated against the faults
// still waiting, so no fault is dropped between generated tests. Don't-care
// PI positions are filled randomly.
func BuildVectors(c *circuit.Circuit, opt Options) *Result {
	return BuildVectorsContext(context.Background(), c, opt)
}

// BuildVectorsContext is BuildVectors under a context: the deterministic
// PODEM pass polls for cancellation between faults (and, via Podem.Ctx,
// inside each per-fault search), returning the partial vector set with
// Result.Cancelled set instead of discarding work already done.
func BuildVectorsContext(ctx context.Context, c *circuit.Circuit, opt Options) *Result {
	if opt.Random <= 0 {
		opt.Random = 1024
	}
	tr := telemetry.FromContext(ctx)
	ctx, span := tr.StartSpan(ctx, "atpg",
		telemetry.Int("random", opt.Random), telemetry.Bool("deterministic", opt.Deterministic))
	rng := rand.New(rand.NewSource(opt.Seed))
	rows := sim.RandomPatterns(len(c.PIs), opt.Random, rng.Int63())
	res := &Result{PI: rows, N: opt.Random}
	defer func() {
		span.End(
			telemetry.Int("n", res.N),
			telemetry.Float("coverage", res.Coverage),
			telemetry.Int("generated", res.Generated),
			telemetry.Int("untestable", res.Untestable),
			telemetry.Int("aborted", res.Aborted),
			telemetry.Int64("backtracks", res.Backtracks),
			telemetry.Bool("cancelled", res.Cancelled))
	}()
	reps, _ := fault.Collapse(c)
	det := fault.Detected(c, reps, res.PI, res.N)

	if opt.Deterministic {
		// One PODEM search per fault the random patterns missed, in fault
		// order, with a cancellation poll between faults.
		p := NewPodem(c)
		p.Ctx = ctx
		p.CBacktracks = tr.Registry().Counter("tpg.backtracks", "PODEM backtracks during deterministic test generation.")
		if opt.BacktrackLimit > 0 {
			p.BacktrackLimit = opt.BacktrackLimit
		}
		var extra [][]v3
		for i, f := range reps {
			if det[i] {
				continue
			}
			if ctx.Err() != nil {
				res.Cancelled = true
				break
			}
			assign, outcome := p.Generate(f)
			switch outcome {
			case Untestable:
				res.Untestable++
			case Aborted:
				res.Aborted++
			case TestFound:
				res.Generated++
				extra = append(extra, assign)
			}
		}
		if len(extra) > 0 {
			// V only changes when PODEM appended patterns; otherwise the
			// random-pattern detection above already covers it.
			appendPatterns(res, extra, rng)
			det = fault.Detected(c, reps, res.PI, res.N)
		}
		res.Backtracks = p.Backtracks
	}

	res.Coverage = fault.Coverage(det)
	return res
}

// appendPatterns packs ternary PI assignments onto the end of the vector
// set, filling don't-cares randomly.
func appendPatterns(res *Result, pats [][]v3, rng *rand.Rand) {
	newN := res.N + len(pats)
	w := sim.Words(newN)
	oldW := sim.Words(res.N)
	for i := range res.PI {
		row := make([]uint64, w)
		copy(row, res.PI[i])
		// Bits beyond the old pattern count are unspecified garbage (random
		// pattern rows fill whole words); clear them so the new patterns
		// land on zeroed ground.
		row[oldW-1] &= sim.TailMask(res.N)
		res.PI[i] = row
	}
	for k, pat := range pats {
		v := res.N + k
		for i := range res.PI {
			bit := pat[i]
			set := bit == t3 || (bit == x3 && rng.Intn(2) == 1)
			if set {
				res.PI[i][v/64] |= 1 << (uint(v) % 64)
			}
		}
	}
	res.N = newN
}

// ApplyAssignment converts a ternary PI assignment into a single-pattern
// input matrix, filling don't-cares with fill.
func ApplyAssignment(c *circuit.Circuit, assign []v3, fill bool) [][]uint64 {
	rows := make([][]uint64, len(c.PIs))
	for i := range rows {
		rows[i] = make([]uint64, 1)
		set := assign[i] == t3 || (assign[i] == x3 && fill)
		if set {
			rows[i][0] = 1
		}
	}
	return rows
}

// WeightedRandom produces n patterns where each PI is 1 with the given
// probability — useful for exciting deep AND/OR structures that uniform
// patterns rarely reach.
func WeightedRandom(nPI, n int, p float64, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	w := sim.Words(n)
	rows := make([][]uint64, nPI)
	for i := range rows {
		rows[i] = make([]uint64, w)
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				rows[i][v/64] |= 1 << (uint(v) % 64)
			}
		}
	}
	return rows
}
