package tpg

import (
	"fmt"
	"reflect"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/gen"
)

// The reference ternary algebra: two-input tables folded over a gate's
// inputs, the textbook definition eval3 must agree with.

func and3(a, b v3) v3 {
	if a == f3 || b == f3 {
		return f3
	}
	if a == t3 && b == t3 {
		return t3
	}
	return x3
}

func or3(a, b v3) v3 {
	if a == t3 || b == t3 {
		return t3
	}
	if a == f3 && b == f3 {
		return f3
	}
	return x3
}

func xor3(a, b v3) v3 {
	if a == x3 || b == x3 {
		return x3
	}
	if a != b {
		return t3
	}
	return f3
}

// refEval3 evaluates one gate over ternary input values.
func refEval3(t circuit.GateType, in []v3) v3 {
	switch t {
	case circuit.Const0:
		return f3
	case circuit.Const1:
		return t3
	case circuit.Buf, circuit.DFF:
		return in[0]
	case circuit.Not:
		return not3(in[0])
	}
	fold, acc := and3, t3
	switch t {
	case circuit.Or, circuit.Nor:
		fold, acc = or3, f3
	case circuit.Xor, circuit.Xnor:
		fold, acc = xor3, f3
	}
	for _, v := range in {
		acc = fold(acc, v)
	}
	if t.Inverting() {
		acc = not3(acc)
	}
	return acc
}

// TestEval3MatchesReference: eval3 agrees with the folded tables on every
// ternary input combination of one to three inputs, with and without a
// stuck pin override.
func TestEval3MatchesReference(t *testing.T) {
	types := []circuit.GateType{circuit.Buf, circuit.Not, circuit.DFF, circuit.And, circuit.Nand,
		circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Const0, circuit.Const1}
	for _, gt := range types {
		for n := 1; n <= 3; n++ {
			if gt.MinFanin() > n || (gt.MaxFanin() >= 0 && gt.MaxFanin() < n) {
				continue
			}
			fanin := make([]circuit.Line, n)
			for i := range fanin {
				fanin[i] = circuit.Line(i)
			}
			vals := make([]v3, n)
			combos := 1
			for i := 0; i < n; i++ {
				combos *= 3
			}
			for k := 0; k < combos; k++ {
				for i, r := 0, k; i < n; i, r = i+1, r/3 {
					vals[i] = v3(r % 3)
				}
				for pin := -1; pin < n; pin++ {
					for _, sv := range []v3{f3, t3, x3} {
						in := append([]v3(nil), vals...)
						if pin >= 0 {
							in[pin] = sv
						}
						if got, want := eval3(gt, fanin, vals, pin, sv), refEval3(gt, in); got != want {
							t.Fatalf("%s%v pin %d=%d: got %d, want %d", gt, vals, pin, sv, got, want)
						}
					}
				}
			}
		}
	}
}

// fullSweepPodem is the reference generator: the same search as Podem, but
// every implication re-simulates both machines over the whole circuit and
// the D-frontier is scanned over the whole topological order. It shares
// Podem's unchanged helpers (detected, activation, failed, backtrace)
// through embedding, and keeps its own cone marks from circuit.FanoutCone.
type fullSweepPodem struct {
	*Podem
	refCone []bool
}

func newFullSweepPodem(c *circuit.Circuit) *fullSweepPodem {
	return &fullSweepPodem{Podem: NewPodem(c), refCone: make([]bool, c.NumLines())}
}

func (p *fullSweepPodem) Generate(ft fault.Fault) ([]v3, PodemResult) {
	for i := range p.assign {
		p.assign[i] = x3
	}
	for i := range p.refCone {
		p.refCone[i] = false
	}
	coneRoot := ft.Line
	if !ft.IsStem() {
		coneRoot = ft.Reader
	}
	for _, l := range p.C.FanoutCone(coneRoot) {
		p.refCone[l] = true
	}

	p.imply(ft)
	var stack []decision
	backtracks := 0
	defer func() { p.Backtracks += int64(backtracks) }()
	for {
		if p.detected() {
			out := make([]v3, len(p.assign))
			copy(out, p.assign)
			return out, TestFound
		}
		obj, ok := p.objective(ft)
		if ok {
			pi, val, found := p.backtrace(obj)
			if found {
				p.assign[pi] = val
				stack = append(stack, decision{pi: pi, value: val})
				p.imply(ft)
				continue
			}
		}
		for {
			if len(stack) == 0 {
				return nil, Untestable
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = not3(d.value)
				p.assign[d.pi] = d.value
				backtracks++
				if backtracks > p.BacktrackLimit {
					return nil, Aborted
				}
				p.imply(ft)
				break
			}
			p.assign[d.pi] = x3
			stack = stack[:len(stack)-1]
		}
		if p.failed(ft) {
			continue
		}
	}
}

// imply runs full five-valued simulation from the current PI assignment.
func (p *fullSweepPodem) imply(ft fault.Fault) {
	c := p.C
	var gin, bin []v3
	for _, l := range p.topo {
		g := &c.Gates[l]
		var gv, bv v3
		if g.Type == circuit.Input {
			gv = p.assign[p.piIdx[l]]
			bv = gv
		} else {
			gin, bin = gin[:0], bin[:0]
			for pin, f := range g.Fanin {
				fg, fb := p.goodV[f], p.badV[f]
				if !ft.IsStem() && ft.Reader == l && ft.Pin == pin {
					fb = stuck(ft)
				}
				gin = append(gin, fg)
				bin = append(bin, fb)
			}
			gv = refEval3(g.Type, gin)
			bv = refEval3(g.Type, bin)
		}
		if ft.IsStem() && ft.Line == l {
			bv = stuck(ft)
		}
		p.goodV[l] = gv
		p.badV[l] = bv
	}
}

// objective is Podem.objective with the D-frontier scanned over the whole
// topological order, filtered by the cone marks.
func (p *fullSweepPodem) objective(ft fault.Fault) (obj struct {
	line circuit.Line
	val  v3
}, ok bool) {
	active, possible := p.activation(ft)
	if !possible {
		return obj, false
	}
	if !active {
		obj.line = ft.Line
		obj.val = not3(stuck(ft))
		return obj, true
	}
	for _, l := range p.topo {
		if !p.refCone[l] {
			continue
		}
		g := &p.C.Gates[l]
		if g.Type == circuit.Input {
			continue
		}
		if p.goodV[l] != x3 && p.badV[l] != x3 {
			continue
		}
		hasD := false
		for pin, f := range g.Fanin {
			fg, fb := p.goodV[f], p.badV[f]
			if !ft.IsStem() && ft.Reader == l && ft.Pin == pin {
				fb = stuck(ft)
			}
			if fg != x3 && fb != x3 && fg != fb {
				hasD = true
				break
			}
		}
		if !hasD {
			continue
		}
		cv, hasCtrl := g.Type.ControllingValue()
		target := t3
		if hasCtrl && cv {
			target = f3
		}
		pick := circuit.NoLine
		var bestCost int32
		for _, f := range g.Fanin {
			if p.goodV[f] != x3 {
				continue
			}
			cost := p.scoap.CC(f, target == t3)
			if pick == circuit.NoLine || cost < bestCost {
				pick, bestCost = f, cost
			}
		}
		if pick != circuit.NoLine {
			obj.line = pick
			obj.val = target
			return obj, true
		}
	}
	return obj, false
}

// TestImplicationDifferential: for every collapsed fault — stems and
// branches — the event-driven generator returns the same assignment,
// outcome and backtrack count as the full-sweep reference, on benchmark
// circuits and on a design-error variant of each. One generator of each
// kind serves all of a circuit's faults, so state left over from an earlier
// search (pending events, cone marks) is exercised too.
func TestImplicationDifferential(t *testing.T) {
	names := []string{"alu4", "c432*", "c1355*", "c5315*"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		bm, ok := gen.ByName(name)
		if !ok {
			t.Fatalf("unknown circuit %q", name)
		}
		spec := bm.Build()
		bad, _, err := errmodel.Inject(spec, 2, errmodel.InjectOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: inject: %v", name, err)
		}
		for _, v := range []struct {
			label string
			c     *circuit.Circuit
		}{{name, spec}, {name + "+2err", bad}} {
			c := v.c
			t.Run(v.label, func(t *testing.T) {
				t.Parallel()
				reps, _ := fault.Collapse(c)
				p, ref := NewPodem(c), newFullSweepPodem(c)
				// A limit below the default keeps the reference's aborted
				// searches short; Aborted outcomes still occur.
				p.BacktrackLimit, ref.BacktrackLimit = 200, 200
				var stems, branches int
				outcomes := map[PodemResult]int{}
				for _, ft := range reps {
					if ft.IsStem() {
						stems++
					} else {
						branches++
					}
					bt, refBt := p.Backtracks, ref.Backtracks
					assign, res := p.Generate(ft)
					wantAssign, wantRes := ref.Generate(ft)
					outcomes[res]++
					if res != wantRes || !reflect.DeepEqual(assign, wantAssign) {
						t.Fatalf("%v: got (%v, %v), reference (%v, %v)", ft, assign, res, wantAssign, wantRes)
					}
					if got, want := p.Backtracks-bt, ref.Backtracks-refBt; got != want {
						t.Fatalf("%v: %d backtracks, reference %d", ft, got, want)
					}
				}
				if stems == 0 || branches == 0 {
					t.Errorf("fault list has %d stem and %d branch faults; want both", stems, branches)
				}
				t.Logf("%d faults (%d stem, %d branch): %s", len(reps), stems, branches, fmtOutcomes(outcomes))
			})
		}
	}
}

func fmtOutcomes(m map[PodemResult]int) string {
	return fmt.Sprintf("%d found, %d untestable, %d aborted", m[TestFound], m[Untestable], m[Aborted])
}
