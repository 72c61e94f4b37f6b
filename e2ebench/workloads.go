package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/opt"
	"dedc/internal/tpg"
)

// kind selects the library entry point an op ends in.
type kind int

const (
	repairKind  kind = iota // diagnose.RepairContext (Table 2 DEDC, first solution)
	stuckAtKind             // diagnose.DiagnoseStuckAtContext (Table 1, exact)
	provenKind              // diagnose.RepairProven (DEDC with SAT-driven refinement)
)

// cell is one Table 1/2 cell: a generated circuit, an injected fault or
// error count, and the trial seeds 1..trials drawn for it.
type cell struct {
	circuit string
	k       int
	trials  int
}

// workload is a fixed set of cells diagnosed one op at a time.
type workload struct {
	name     string
	why      string
	kind     kind
	optimize bool // area-optimise the circuit first (Table 1's setting)
	random   int  // random vectors in V
	podem    bool // add PODEM vectors for the faults the random set misses
	cells    []cell
	// budget bounds one op's wall time, well above the workload's slowest
	// solved op on the 2-CPU recording host; an op still running at the
	// budget ends TimedOut and counts against solved_ratio. RepairProven
	// takes no context, so there it bounds each repair round.
	budget time.Duration
	// dominant is the layer the attribution table is predicted to show as
	// the largest share of op time.
	dominant string
}

// vecSeed seeds every vector set. It is fixed, like the trial seeds: on
// these cells a different V moves one op's time by up to 30x, so the seed
// of a run orders the ops instead of redrawing them (see README.md).
const vecSeed = 1

// paperWorkloads are the benchmark's workloads on paper-scale cells.
func paperWorkloads() []workload {
	return []workload{
		{
			name:     "repair-screen",
			why:      "Table 2 DEDC on c1355* at 3 errors: correction screening through sim.Engine cone trials dominates, ATPG does little",
			kind:     repairKind,
			random:   2048,
			podem:    true,
			cells:    []cell{{"c1355*", 3, 8}},
			budget:   15 * time.Second,
			dominant: "diagnose.corr_s",
		},
		{
			name:     "repair-atpg",
			why:      "Table 2 DEDC on c5315* at 2 errors: cold PODEM on the undetected faults dominates, the search is a few percent and bypasses every screening lever",
			kind:     repairKind,
			random:   2048,
			podem:    true,
			cells:    []cell{{"c5315*", 2, 6}},
			budget:   60 * time.Second,
			dominant: "tpg.build_s",
		},
		{
			name:     "stuckat-exact",
			why:      "Table 1 exact stuck-at on optimised c1355* and c432* at 3-4 faults: heuristic-1 ranking and the verify gate dominate, V is built in set-up",
			kind:     stuckAtKind,
			optimize: true,
			random:   2048,
			podem:    true,
			cells:    []cell{{"c1355*", 3, 3}, {"c432*", 3, 4}, {"c432*", 4, 4}},
			budget:   15 * time.Second,
			dominant: "diagnose.diag_s",
		},
		{
			name:     "repair-proven",
			why:      "RepairProven CEGAR on c3540* and c432* at 2 errors from 64 random vectors: the only workload that reaches equiv and sat",
			kind:     provenKind,
			random:   64,
			cells:    []cell{{"c3540*", 2, 8}, {"c432*", 2, 8}},
			budget:   5 * time.Second,
			dominant: "diagnose.cegar_s",
		},
	}
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one op's input: netlist text for the implementation and its
// reference (the specification in DEDC, the faulty device in stuck-at
// mode), plus the design's vector set where the workload builds it once in
// set-up.
type instance struct {
	id      string
	cell    cell
	impl    []byte
	ref     []byte
	vectors *tpg.Result // stuck-at only
	buildS  float64     // wall time of that vector build
}

// setup generates every instance of a workload: build and optimise the
// circuits, inject the trials' faults or errors, and check
// each injection against responses on the vectors the op will use.
func setup(ctx context.Context, w workload) ([]*instance, error) {
	var out []*instance
	designs := map[string]*design{}
	for _, c := range w.cells {
		d, ok := designs[c.circuit]
		if !ok {
			var err error
			if d, err = newDesign(ctx, w, c.circuit); err != nil {
				return nil, err
			}
			designs[c.circuit] = d
		}
		for t := 1; t <= c.trials; t++ {
			inst, err := d.inject(w, c, t)
			if err != nil {
				return nil, err
			}
			out = append(out, inst)
		}
	}
	return out, nil
}

// design is a circuit prepared once per workload set-up.
type design struct {
	c       *circuit.Circuit
	text    []byte
	check   *tpg.Result // the op's random prefix of V (DEDC) or all of V (stuck-at)
	goodOut [][]uint64
	buildS  float64
}

func newDesign(ctx context.Context, w workload, name string) (*design, error) {
	bm, ok := gen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", name)
	}
	c := bm.Build() // every cell is combinational: no scan conversion
	if w.optimize {
		oc, err := opt.Optimize(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		c = oc
	}
	d := &design{c: c}
	var err error
	if d.text, err = netlistText(c); err != nil {
		return nil, err
	}
	// A DEDC op builds V from the implementation; its random prefix depends
	// only on the PI count and the seed, so the spec's random-only build is
	// that prefix. Stuck-at builds the whole V here, once per design.
	t0 := time.Now()
	d.check = tpg.BuildVectorsContext(ctx, c, tpg.Options{
		Random:        w.random,
		Seed:          vecSeed,
		Deterministic: w.kind == stuckAtKind && w.podem,
	})
	d.buildS = time.Since(t0).Seconds()
	d.goodOut = diagnose.DeviceOutputs(c, d.check.PI, d.check.N)
	return d, nil
}

func (d *design) inject(w workload, c cell, trial int) (*instance, error) {
	inst := &instance{id: fmt.Sprintf("%s/k%d/t%d", c.circuit, c.k, trial), cell: c, impl: d.text, ref: d.text}
	var bad *circuit.Circuit
	if w.kind == stuckAtKind {
		fs := fault.PickObservable(d.c, c.k, int64(trial))
		if fs == nil {
			return nil, fmt.Errorf("%s: no observable fault combination", inst.id)
		}
		bad = fault.Inject(d.c, fs...)
		inst.vectors, inst.buildS = d.check, d.buildS
	} else {
		var err error
		bad, _, err = errmodel.Inject(d.c, c.k, errmodel.InjectOptions{
			Seed:          int64(trial),
			CheckPatterns: d.check.PI,
			N:             d.check.N,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst.id, err)
		}
	}
	// The faults or errors must stay visible together on V, not just one
	// by one.
	if diagnose.Verify(bad, d.goodOut, d.check.PI, d.check.N) {
		return nil, fmt.Errorf("%s: injection invisible on V", inst.id)
	}
	text, err := netlistText(bad)
	if err != nil {
		return nil, err
	}
	if w.kind == stuckAtKind {
		inst.ref = text // the faulty device
	} else {
		inst.impl = text // the erroneous implementation
	}
	return inst, nil
}

func netlistText(c *circuit.Circuit) ([]byte, error) {
	var b bytes.Buffer
	if err := bench.Write(&b, c); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
