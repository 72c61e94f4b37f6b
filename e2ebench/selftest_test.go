package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dedc/internal/bench"
	"dedc/internal/diagnose"
	"dedc/internal/errmodel"
	"dedc/internal/fault"
	"dedc/internal/tpg"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// self-test reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := paperWorkloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
}

// smallWorkloads mirror paperWorkloads on SmallSuite circuits, for the
// self-test: the same names and code paths in well under a second.
func smallWorkloads() []workload {
	ws := paperWorkloads()
	small := [][]cell{
		{{"alu4", 1, 2}},
		{{"addcmp8", 1, 2}},
		{{"ecc8", 2, 2}},
		{{"alu4", 1, 2}},
	}
	for i := range ws {
		ws[i].cells = small[i]
		if ws[i].random > 256 {
			ws[i].random = 256
		}
	}
	return ws
}

// runSmall runs one SmallSuite workload through the command's entry point
// and returns its JSON result and report.
func runSmall(t *testing.T, name string, trace string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", name, "--seconds", "0", "--trace", trace}, smallWorkloads(), t.TempDir(), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", name, trace, err)
	}
	return r, stderr.String()
}

func metricKeys(m map[string]metricValue) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func specKeys(specs []metricSpec) []string {
	var ks []string
	for _, m := range specs {
		ks = append(ks, m.name)
	}
	sort.Strings(ks)
	return ks
}

// produced names, for each workload, the per-layer metrics its code path
// must report as non-zero even on SmallSuite circuits.
var produced = map[string][]string{
	"repair-screen": repairLayers,
	"repair-atpg":   repairLayers,
	"stuckat-exact": {"bench.read_s", "tpg.build_s", "tpg.vectors", "sim.ref_s", "pathtrace.root_s",
		"diagnose.search_s", "diagnose.diag_s", "diagnose.nodes", "diagnose.simulations", "diagnose.verified",
		"diagnose.root_h1_s", "sim.trials", "pathtrace.kept"},
	"repair-proven": {"bench.read_s", "tpg.build_s", "tpg.vectors", "diagnose.cegar_s", "diagnose.cegar_iterations",
		"diagnose.cegar_added_vectors", "equiv.final_check_s", "equiv.final_conflicts", "sat.conflicts",
		"sat.propagations", "proven_ratio"},
}

var repairLayers = []string{"bench.read_s", "tpg.build_s", "tpg.vectors", "tpg.backtracks", "sim.ref_s",
	"pathtrace.root_s", "diagnose.search_s", "diagnose.diag_s", "diagnose.corr_s", "diagnose.nodes",
	"diagnose.trials", "diagnose.screened", "diagnose.candidates", "diagnose.simulations",
	"diagnose.root_h1_s", "diagnose.root_screen_s", "sim.trials", "sim.events", "pathtrace.kept"}

// TestEveryMetricEmitted runs each workload's code path on SmallSuite
// circuits, untraced and traced. Each run must report exactly the named
// metrics with their units, the traced run a non-zero value for every
// layer its path reaches, and an attribution table whose rows sum to the
// op time with a residual near zero.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range smallWorkloads() {
		r, _ := runSmall(t, w.name, "0")
		if !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d", w.name, r.Correct, r.Attempted)
		}
		if got, want := strings.Join(metricKeys(r.Metrics), ","), strings.Join(specKeys(endToEnd), ","); got != want {
			t.Errorf("%s trace 0: metrics %s, want %s", w.name, got, want)
		}
		for _, m := range endToEnd {
			if v := r.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s: %s = %v %s, want a positive value in %s", w.name, m.name, v.Value, v.Unit, m.unit)
			}
		}

		var report bytes.Buffer
		tr, err := runWorkload(context.Background(), w, runConfig{seed: 1, traced: true, spanDir: t.TempDir(), log: &report})
		if err != nil {
			t.Fatalf("%s trace 1: %v", w.name, err)
		}
		if got, want := strings.Join(metricKeys(tr.Metrics), ","), strings.Join(specKeys(perLayer), ","); got != want {
			t.Errorf("%s trace 1: metrics %s, want %s", w.name, got, want)
		}
		for _, name := range produced[w.name] {
			if v := tr.Metrics[name].Value; v <= 0 {
				t.Errorf("%s trace 1: %s = %v, want it produced", w.name, name, v)
			}
		}
		if !strings.Contains(report.String(), "attribution "+w.name) {
			t.Errorf("%s: traced report has no attribution table:\n%s", w.name, report.String())
		}
		s := tr.sum
		op := sumOf(s.tracedOpS) / float64(s.traced)
		var total, rest float64
		for _, row := range s.attribution(w) {
			total += row.value
			if row.name == "op.rest_s" {
				rest = row.value
			}
		}
		if math.Abs(total-op) > 1e-9*op {
			t.Errorf("%s: attribution rows sum to %v s, op time %v s", w.name, total, op)
		}
		if rest < -1e-9 || rest > 0.05*op+1e-3 {
			t.Errorf("%s: residual op.rest_s %v s of op time %v s: the layer calls do not cover the op", w.name, rest, op)
		}
	}
}

var digestLine = regexp.MustCompile(`digest [0-9a-f]{16}`)

// TestDigestRepeats: two runs of the same code print the same digest.
func TestDigestRepeats(t *testing.T) {
	for _, w := range smallWorkloads() {
		_, a := runSmall(t, w.name, "0")
		_, b := runSmall(t, w.name, "0")
		da, db := digestLine.FindString(a), digestLine.FindString(b)
		if da == "" || da != db {
			t.Errorf("%s: digests %q and %q", w.name, da, db)
		}
	}
}

// TestCheckRejectsCorruption: the correctness check accepts the library's
// own outputs and rejects a corrupted repair or a wrong fault tuple.
func TestCheckRejectsCorruption(t *testing.T) {
	ctx := context.Background()
	ws := smallWorkloads()
	w, _ := findWorkload(ws, "repair-screen")
	insts, err := setup(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	impl, _ := bench.Read(bytes.NewReader(insts[0].impl))
	spec, _ := bench.Read(bytes.NewReader(insts[0].ref))
	vec := tpg.BuildVectorsContext(ctx, impl, tpg.Options{Random: w.random, Seed: vecSeed, Deterministic: true})
	specOut := diagnose.DeviceOutputs(spec, vec.PI, vec.N)
	rep, err := diagnose.RepairContext(ctx, impl, specOut, vec.PI, vec.N, diagnose.Options{MaxErrors: 2})
	if err != nil || !rep.Solved() {
		t.Fatalf("repair: %v solved=%v", err, rep.Solved())
	}
	if err := checkRepair(rep.Repaired, specOut, vec.PI, vec.N); err != nil {
		t.Fatalf("check rejects a good repair: %v", err)
	}
	corrupt, _, err := errmodel.Inject(rep.Repaired, 1, errmodel.InjectOptions{Seed: 7, CheckPatterns: vec.PI, N: vec.N})
	if err != nil {
		t.Fatal(err)
	}
	if checkRepair(corrupt, specOut, vec.PI, vec.N) == nil {
		t.Error("check accepts a corrupted repair")
	}
	if checkRepair(nil, specOut, vec.PI, vec.N) == nil {
		t.Error("check accepts a solved repair with no netlist")
	}

	w, _ = findWorkload(ws, "stuckat-exact")
	if insts, err = setup(ctx, w); err != nil {
		t.Fatal(err)
	}
	inst := insts[0]
	good, _ := bench.Read(bytes.NewReader(inst.impl))
	dev, _ := bench.Read(bytes.NewReader(inst.ref))
	pi, n := inst.vectors.PI, inst.vectors.N
	devOut := diagnose.DeviceOutputs(dev, pi, n)
	res, err := diagnose.DiagnoseStuckAtContext(ctx, good, devOut, pi, n, diagnose.Options{MaxErrors: inst.cell.k})
	if err != nil || len(res.Tuples) == 0 {
		t.Fatalf("stuck-at: %v, %d tuples", err, len(res.Tuples))
	}
	if err := checkTuples(good, res.Tuples, inst.cell.k, devOut, pi, n); err != nil {
		t.Fatalf("check rejects the library's tuples: %v", err)
	}
	if checkTuples(good, nil, inst.cell.k, devOut, pi, n) == nil {
		t.Error("check accepts a solved diagnosis with no tuple")
	}
	if checkTuples(good, []fault.Tuple{{}}, inst.cell.k, devOut, pi, n) == nil {
		t.Error("check accepts an empty tuple for a faulty device")
	}
	if checkTuples(good, res.Tuples, 0, devOut, pi, n) == nil {
		t.Error("check accepts tuples all larger than the injected count")
	}
}
