package tpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
)

func TestTernaryTables(t *testing.T) {
	if and3(f3, x3) != f3 {
		t.Error("0 AND X should be 0")
	}
	if and3(t3, x3) != x3 {
		t.Error("1 AND X should be X")
	}
	if or3(t3, x3) != t3 {
		t.Error("1 OR X should be 1")
	}
	if or3(f3, x3) != x3 {
		t.Error("0 OR X should be X")
	}
	if not3(x3) != x3 {
		t.Error("NOT X should be X")
	}
	if xor3(t3, x3) != x3 {
		t.Error("1 XOR X should be X")
	}
	if xor3(t3, f3) != t3 || xor3(t3, t3) != f3 {
		t.Error("XOR truth table wrong")
	}
}

func TestEval3MatchesBinary(t *testing.T) {
	types := []circuit.GateType{circuit.And, circuit.Nand, circuit.Or, circuit.Nor, circuit.Xor, circuit.Xnor}
	for _, tt := range types {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				got := eval3(tt, []circuit.Line{0, 1}, []v3{v3(a), v3(b)}, -1, 0)
				rows := [][]uint64{{uint64(a)}, {uint64(b)}}
				out := make([]uint64, 1)
				sim.EvalGateInto(tt, out, 1, rows...)
				want := v3(out[0] & 1)
				if got != want {
					t.Errorf("%s(%d,%d) = %d, want %d", tt, a, b, got, want)
				}
			}
		}
	}
}

// verifyTest checks that the assignment actually detects the fault.
func verifyTest(t *testing.T, c *circuit.Circuit, ft fault.Fault, assign []v3) {
	t.Helper()
	for _, fill := range []bool{false, true} {
		pi := ApplyAssignment(c, assign, fill)
		good := sim.Outputs(c, sim.Simulate(c, pi, 1))
		fc := fault.Inject(c, ft)
		bad := sim.Outputs(fc, sim.Simulate(fc, pi, 1))
		diff := sim.DiffMask(good, bad, 1)
		if diff[0] == 0 {
			t.Fatalf("generated vector does not detect %v (fill=%v)", ft, fill)
		}
	}
}

func TestPodemSimpleAnd(t *testing.T) {
	c := circuit.New(4)
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate(circuit.And, a, b)
	c.MarkPO(g)
	p := NewPodem(c)
	// Output stuck-at-0: requires a=b=1.
	ft := fault.Fault{Site: fault.Site{Line: g, Reader: circuit.NoLine}, Value: false}
	assign, res := p.Generate(ft)
	if res != TestFound {
		t.Fatalf("result = %v, want TestFound", res)
	}
	if assign[0] != t3 || assign[1] != t3 {
		t.Fatalf("assignment %v, want both 1", assign)
	}
	verifyTest(t, c, ft, assign)
}

func TestPodemRequiresPropagation(t *testing.T) {
	// Fault on an internal line must be propagated through the downstream
	// AND, requiring its side input at non-controlling value.
	c := circuit.New(6)
	a := c.AddPI("a")
	b := c.AddPI("b")
	en := c.AddPI("en")
	g1 := c.AddGate(circuit.Or, a, b)
	g2 := c.AddGate(circuit.And, g1, en)
	c.MarkPO(g2)
	p := NewPodem(c)
	ft := fault.Fault{Site: fault.Site{Line: g1, Reader: circuit.NoLine}, Value: false}
	assign, res := p.Generate(ft)
	if res != TestFound {
		t.Fatalf("result = %v", res)
	}
	if assign[2] != t3 {
		t.Fatal("en must be 1 to propagate")
	}
	verifyTest(t, c, ft, assign)
}

func TestPodemUntestableFault(t *testing.T) {
	// y = a AND NOT a is constant 0: y stuck-at-0 is untestable.
	c := circuit.New(4)
	a := c.AddPI("a")
	na := c.AddGate(circuit.Not, a)
	y := c.AddGate(circuit.And, a, na)
	c.MarkPO(y)
	p := NewPodem(c)
	ft := fault.Fault{Site: fault.Site{Line: y, Reader: circuit.NoLine}, Value: false}
	if _, res := p.Generate(ft); res != Untestable {
		t.Fatalf("result = %v, want Untestable", res)
	}
	// stuck-at-1 on the same line is testable (any input works).
	ft.Value = true
	assign, res := p.Generate(ft)
	if res != TestFound {
		t.Fatalf("result = %v, want TestFound", res)
	}
	verifyTest(t, c, ft, assign)
}

func TestPodemBranchFault(t *testing.T) {
	// Stem b feeds two gates; fault only the branch into g1.
	c := circuit.New(8)
	a := c.AddPI("a")
	b := c.AddPI("b")
	d := c.AddPI("d")
	g1 := c.AddGate(circuit.And, a, b)
	g2 := c.AddGate(circuit.Or, b, d)
	c.MarkPO(g1)
	c.MarkPO(g2)
	p := NewPodem(c)
	ft := fault.Fault{Site: fault.Site{Line: b, Reader: g1, Pin: 1}, Value: false}
	assign, res := p.Generate(ft)
	if res != TestFound {
		t.Fatalf("result = %v", res)
	}
	verifyTest(t, c, ft, assign)
}

func TestPodemPropertyGeneratedTestsDetect(t *testing.T) {
	// For random circuits and random faults: whenever PODEM claims
	// TestFound, the vector must detect the fault under both X fills.
	f := func(seed int64) bool {
		c := gen.Random(gen.RandomOptions{PIs: 8, Gates: 60, Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		p := NewPodem(c)
		faults := fault.AllFaults(c)
		for tries := 0; tries < 10; tries++ {
			ft := faults[rng.Intn(len(faults))]
			assign, res := p.Generate(ft)
			if res != TestFound {
				continue
			}
			for _, fill := range []bool{false, true} {
				pi := ApplyAssignment(c, assign, fill)
				good := sim.Outputs(c, sim.Simulate(c, pi, 1))
				fc := fault.Inject(c, ft)
				bad := sim.Outputs(fc, sim.Simulate(fc, pi, 1))
				if sim.DiffMask(good, bad, 1)[0] == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPodemUntestableClaimsAreSound(t *testing.T) {
	// Whenever PODEM claims Untestable on a small circuit, exhaustive
	// simulation must agree that no input detects the fault.
	f := func(seed int64) bool {
		c := gen.Random(gen.RandomOptions{PIs: 5, Gates: 25, Seed: seed})
		rng := rand.New(rand.NewSource(seed ^ 7))
		p := NewPodem(c)
		faults := fault.AllFaults(c)
		for tries := 0; tries < 8; tries++ {
			ft := faults[rng.Intn(len(faults))]
			_, res := p.Generate(ft)
			if res != Untestable {
				continue
			}
			pi, n, _ := sim.ExhaustivePatterns(len(c.PIs))
			good := sim.Outputs(c, sim.Simulate(c, pi, n))
			fc := fault.Inject(c, ft)
			bad := sim.Outputs(fc, sim.Simulate(fc, pi, n))
			for _, w := range sim.DiffMask(good, bad, n) {
				if w != 0 {
					return false // claimed untestable but detectable
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildVectorsCoverage(t *testing.T) {
	c := gen.Alu(8)
	res := BuildVectors(c, Options{Random: 512, Seed: 3, Deterministic: true})
	if res.Coverage < 0.95 {
		t.Fatalf("coverage = %.3f, want >= 0.95", res.Coverage)
	}
	if res.N < 512 {
		t.Fatalf("N = %d", res.N)
	}
}

func TestBuildVectorsDeterministicImproves(t *testing.T) {
	// On a circuit with deep AND trees, random-only coverage should not
	// exceed random+PODEM coverage.
	c := gen.Decoder(4)
	rOnly := BuildVectors(c, Options{Random: 64, Seed: 5})
	rPlus := BuildVectors(c, Options{Random: 64, Seed: 5, Deterministic: true})
	if rPlus.Coverage < rOnly.Coverage {
		t.Fatalf("deterministic pass reduced coverage: %.3f -> %.3f", rOnly.Coverage, rPlus.Coverage)
	}
	if rPlus.N < rOnly.N {
		t.Fatal("deterministic pass lost patterns")
	}
}

func TestBuildVectorsReproducible(t *testing.T) {
	c := gen.Alu(4)
	a := BuildVectors(c, Options{Random: 128, Seed: 11, Deterministic: true})
	b := BuildVectors(c, Options{Random: 128, Seed: 11, Deterministic: true})
	if a.N != b.N || a.Coverage != b.Coverage {
		t.Fatal("BuildVectors not reproducible")
	}
	for i := range a.PI {
		if !sim.EqualRows(a.PI[i], b.PI[i], a.N) {
			t.Fatal("vector rows differ across runs")
		}
	}
}

func TestWeightedRandom(t *testing.T) {
	rows := WeightedRandom(4, 10000, 0.9, 1)
	ones := 0
	for _, r := range rows {
		ones += sim.Popcount(r, 10000)
	}
	frac := float64(ones) / (4 * 10000)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("weighted density = %.3f, want ≈0.9", frac)
	}
}

func TestApplyAssignment(t *testing.T) {
	c := gen.RippleAdder(2)
	assign := make([]v3, len(c.PIs))
	for i := range assign {
		assign[i] = x3
	}
	assign[0] = t3
	pi := ApplyAssignment(c, assign, false)
	if pi[0][0] != 1 {
		t.Fatal("assigned bit not set")
	}
	for i := 1; i < len(pi); i++ {
		if pi[i][0] != 0 {
			t.Fatal("don't-care filled with 1 despite fill=false")
		}
	}
}
