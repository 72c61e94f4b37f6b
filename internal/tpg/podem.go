package tpg

import (
	"context"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/telemetry"
)

// PodemResult reports the outcome of one deterministic generation attempt.
type PodemResult int

// Generation outcomes.
const (
	TestFound  PodemResult = iota // a detecting assignment was produced
	Untestable                    // proven redundant (search space exhausted)
	Aborted                       // backtrack limit exceeded
)

// Podem is a deterministic test pattern generator for single stuck-at
// faults, implementing the classic PODEM algorithm: PI-only decisions,
// objective/backtrace guidance, five-valued (good/faulty ternary pair)
// implication, and chronological backtracking.
//
// Implication is event-driven. Generate sweeps both machines over the whole
// circuit once per fault; after that, a decision, flip or unassignment
// re-evaluates only the gates reachable from the PIs it changed, level by
// level, and stops wherever a gate's (good, bad) pair is unchanged. Every
// line value is a pure function of the PI assignment, so the search is the
// same as with a full sweep per step, only cheaper.
type Podem struct {
	C *circuit.Circuit
	// BacktrackLimit bounds the search per fault (default 2000).
	BacktrackLimit int
	// Ctx, when non-nil, is polled at bounded intervals inside Generate;
	// cancellation abandons the current fault with Aborted.
	Ctx context.Context

	// Backtracks accumulates the backtrack count across Generate calls.
	Backtracks int64
	// CBacktracks, when non-nil, receives the same increments (nil no-ops).
	CBacktracks *telemetry.Counter

	ctxTick int

	// Read-only tables that depend only on the circuit.
	topo   []circuit.Line
	fanout [][]circuit.Line
	level  []int32
	piIdx  []int32 // position in C.PIs of each PI line, -1 for other lines
	scoap  *Scoap  // SCOAP guidance for backtrace input selection

	goodV  []v3
	badV   []v3
	assign []v3 // current PI assignment

	// The current fault's fanout cone: outside it the faulty machine
	// equals the good one.
	inCone []bool
	cone   []circuit.Line // topological order
	dfs    []circuit.Line // scratch for the cone search

	// Lines awaiting re-evaluation, bucketed by logic level. A reader's
	// level exceeds each of its fanins', so draining the buckets in
	// ascending order evaluates every gate after all of its changed fanins.
	pending [][]circuit.Line
	queued  []bool
	top     int // highest level holding a pending line, -1 when none
}

// NewPodem prepares a generator for the circuit.
func NewPodem(c *circuit.Circuit) *Podem {
	piIdx := make([]int32, c.NumLines())
	for i := range piIdx {
		piIdx[i] = -1
	}
	for i, pi := range c.PIs {
		piIdx[pi] = int32(i)
	}
	return &Podem{
		C:              c,
		BacktrackLimit: 2000,
		topo:           c.Topo(),
		fanout:         c.Fanout(),
		level:          c.Levels(),
		piIdx:          piIdx,
		scoap:          ComputeScoap(c),
		goodV:          make([]v3, c.NumLines()),
		badV:           make([]v3, c.NumLines()),
		assign:         make([]v3, len(c.PIs)),
		inCone:         make([]bool, c.NumLines()),
		pending:        make([][]circuit.Line, c.Depth()+1),
		queued:         make([]bool, c.NumLines()),
		top:            -1,
	}
}

type decision struct {
	pi      int
	value   v3
	flipped bool
}

// podemCheckInterval is how many decision-loop iterations Generate runs
// between context polls. An iteration costs at most one event-driven
// implication, usually over a few gates, so a small interval keeps
// cancellation prompt without measurable overhead.
const podemCheckInterval = 64

// cancelled polls the generator's context at bounded intervals.
func (p *Podem) cancelled() bool {
	if p.Ctx == nil {
		return false
	}
	p.ctxTick++
	if p.ctxTick < podemCheckInterval {
		return false
	}
	p.ctxTick = 0
	return p.Ctx.Err() != nil
}

// Generate attempts to produce a test for fault ft. On TestFound, the
// returned assignment has one entry per PI: 0, 1, or x3 for don't-care.
func (p *Podem) Generate(ft fault.Fault) ([]v3, PodemResult) {
	for i := range p.assign {
		p.assign[i] = x3
	}
	p.setCone(ft)
	p.sweep(ft)
	var stack []decision
	backtracks := 0
	defer func() {
		p.Backtracks += int64(backtracks)
		p.CBacktracks.Add(int64(backtracks))
	}()
	for {
		if p.cancelled() {
			return nil, Aborted
		}
		if p.detected() {
			out := make([]v3, len(p.assign))
			copy(out, p.assign)
			return out, TestFound
		}
		obj, ok := p.objective(ft)
		if ok {
			pi, val, found := p.backtrace(obj)
			if found {
				p.setPI(pi, val)
				stack = append(stack, decision{pi: pi, value: val})
				p.imply(ft)
				continue
			}
		}
		// No progress possible: backtrack.
		for {
			if len(stack) == 0 {
				return nil, Untestable
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = not3(d.value)
				p.setPI(d.pi, d.value)
				backtracks++
				if backtracks > p.BacktrackLimit {
					return nil, Aborted
				}
				p.imply(ft)
				break
			}
			p.setPI(d.pi, x3)
			stack = stack[:len(stack)-1]
		}
		if p.failed(ft) {
			continue // forces another backtrack round via objective failure
		}
	}
}

// setCone marks ft's fanout cone and lists it in topological order.
func (p *Podem) setCone(ft fault.Fault) {
	for _, l := range p.cone {
		p.inCone[l] = false
	}
	root := ft.Line
	if !ft.IsStem() {
		root = ft.Reader
	}
	p.inCone[root] = true
	st := append(p.dfs[:0], root)
	n := 1
	for len(st) > 0 {
		l := st[len(st)-1]
		st = st[:len(st)-1]
		for _, r := range p.fanout[l] {
			if !p.inCone[r] {
				p.inCone[r] = true
				st = append(st, r)
				n++
			}
		}
	}
	p.dfs = st
	p.cone = p.cone[:0]
	for _, l := range p.topo {
		if p.inCone[l] {
			p.cone = append(p.cone, l)
			if len(p.cone) == n {
				break
			}
		}
	}
}

// sweep evaluates both machines over every line from the current PI
// assignment and drops any pending events left by an earlier search.
func (p *Podem) sweep(ft fault.Fault) {
	for lv := 0; lv <= p.top; lv++ {
		for _, l := range p.pending[lv] {
			p.queued[l] = false
		}
		p.pending[lv] = p.pending[lv][:0]
	}
	p.top = -1
	for _, l := range p.topo {
		p.goodV[l], p.badV[l] = p.eval(ft, l)
	}
}

// setPI assigns PI i and schedules it for the next imply when its value
// changes.
func (p *Podem) setPI(i int, v v3) {
	if p.assign[i] == v {
		return
	}
	p.assign[i] = v
	p.enqueue(p.C.PIs[i])
}

func (p *Podem) enqueue(l circuit.Line) {
	if p.queued[l] {
		return
	}
	p.queued[l] = true
	lv := int(p.level[l])
	p.pending[lv] = append(p.pending[lv], l)
	if lv > p.top {
		p.top = lv
	}
}

// imply brings both machines up to date with the PI assignment by
// re-evaluating the pending lines in level order, scheduling the readers of
// every line whose (good, bad) pair changes.
func (p *Podem) imply(ft fault.Fault) {
	for lv := 0; lv <= p.top; lv++ {
		// Readers land on higher levels, so this bucket does not grow while
		// it is drained.
		for _, l := range p.pending[lv] {
			p.queued[l] = false
			gv, bv := p.eval(ft, l)
			if gv == p.goodV[l] && bv == p.badV[l] {
				continue
			}
			p.goodV[l], p.badV[l] = gv, bv
			for _, r := range p.fanout[l] {
				p.enqueue(r)
			}
		}
		p.pending[lv] = p.pending[lv][:0]
	}
	p.top = -1
}

// eval computes line l's (good, bad) pair from its fanins' current values.
func (p *Podem) eval(ft fault.Fault, l circuit.Line) (gv, bv v3) {
	g := &p.C.Gates[l]
	if g.Type == circuit.Input {
		gv = p.assign[p.piIdx[l]]
	} else {
		gv = eval3(g.Type, g.Fanin, p.goodV, -1, 0)
	}
	switch {
	case !p.inCone[l]:
		bv = gv
	case ft.IsStem() && ft.Line == l:
		bv = stuck(ft)
	case ft.Reader == l:
		// Branch fault: the faulty machine reads the stuck value on this
		// pin only.
		bv = eval3(g.Type, g.Fanin, p.badV, ft.Pin, stuck(ft))
	default:
		bv = eval3(g.Type, g.Fanin, p.badV, -1, 0)
	}
	return gv, bv
}

func stuck(ft fault.Fault) v3 {
	if ft.Value {
		return t3
	}
	return f3
}

// detected reports whether any PO carries a D or D̄ (good and faulty both
// known and different).
func (p *Podem) detected() bool {
	for _, po := range p.C.POs {
		g, b := p.goodV[po], p.badV[po]
		if g != x3 && b != x3 && g != b {
			return true
		}
	}
	return false
}

// failed reports definite failure for the current assignment: the fault can
// no longer be excited, or no difference can reach a PO.
func (p *Podem) failed(ft fault.Fault) bool {
	if act, possible := p.activation(ft); !act && !possible {
		return true
	}
	// If some line in the cone still differs or is unknown, propagation may
	// still be possible; a full X-path check is an optimization we skip.
	return false
}

// activation reports whether the fault is currently excited, and whether it
// still can be.
func (p *Podem) activation(ft fault.Fault) (active, possible bool) {
	g := p.goodV[ft.Line]
	want := not3(stuck(ft))
	if g == want {
		return true, true
	}
	if g == x3 {
		return false, true
	}
	return false, false
}

// objective returns the next (line, value) goal: excite the fault, then
// advance the D-frontier.
func (p *Podem) objective(ft fault.Fault) (obj struct {
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
	// D-frontier: a gate in the fault cone whose output good==bad or
	// unknown-equal is of no use; we need gates where some input differs and
	// the output is still unknown on either machine.
	for _, l := range p.cone {
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
		// Set an unknown side input to the non-controlling value, picking
		// the SCOAP-easiest one.
		cv, hasCtrl := g.Type.ControllingValue()
		target := t3
		if hasCtrl {
			if cv {
				target = f3
			} else {
				target = t3
			}
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

// backtrace maps an objective to a PI assignment through X-valued lines.
func (p *Podem) backtrace(obj struct {
	line circuit.Line
	val  v3
}) (pi int, val v3, ok bool) {
	l, v := obj.line, obj.val
	for steps := 0; steps < p.C.NumLines()+8; steps++ {
		g := &p.C.Gates[l]
		if g.Type == circuit.Input {
			i := int(p.piIdx[l])
			if p.assign[i] != x3 {
				return 0, 0, false // already decided; objective unreachable
			}
			return i, v, true
		}
		if g.Type == circuit.Const0 || g.Type == circuit.Const1 {
			return 0, 0, false
		}
		if g.Type.Inverting() {
			v = not3(v)
		}
		// Choose an X input with SCOAP guidance: when one controlling input
		// suffices, take the EASIEST to control; when every input must reach
		// the non-controlling value, attack the HARDEST first (so failures
		// surface before effort is wasted on the easy ones).
		cv, hasCtrl := g.Type.ControllingValue()
		wantEasiest := hasCtrl && (v == t3) == cv
		next := circuit.NoLine
		var bestCost int32
		for _, f := range g.Fanin {
			if p.goodV[f] != x3 {
				continue
			}
			cost := p.scoap.CC(f, v == t3)
			if next == circuit.NoLine ||
				(wantEasiest && cost < bestCost) ||
				(!wantEasiest && cost > bestCost) {
				next, bestCost = f, cost
			}
		}
		if next == circuit.NoLine {
			return 0, 0, false
		}
		switch g.Type {
		case circuit.Xor, circuit.Xnor:
			// Heuristic: aim for the cheaper value on the chosen input; the
			// implication pass sorts out the real parity.
			if p.scoap.CC0[next] <= p.scoap.CC1[next] {
				v = f3
			} else {
				v = t3
			}
		}
		l = next
	}
	return 0, 0, false
}
