package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricSpec names one reported metric. For a per-layer metric, moves says
// which end-to-end metric on which workload it is expected to move.
type metricSpec struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics of the untraced run (--trace 0).
var endToEnd = []metricSpec{
	{name: "diagnoses_per_s", unit: "op/s", better: "higher"},
	{name: "diag_p50_s", unit: "s", better: "lower"},
	{name: "solved_ratio", unit: "ratio", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
}

// perLayer are the metrics of the traced run (--trace 1). Times and counts
// are means per traced op; ratios are ratios of sums over the run.
var perLayer = []metricSpec{
	{"bench.read_s", "s", "lower", "control: should move nothing"},
	{"tpg.build_s", "s", "lower", "diagnoses_per_s and diag_p50_s on repair-atpg; setup_s on stuckat-exact (its V is built in set-up)"},
	{"tpg.vectors", "count", "lower", "diag_p50_s on repair-atpg; also diagnose.corr_s on repair-screen, as N sets the words per trial"},
	{"tpg.generated", "count", "lower", "diag_p50_s on repair-atpg"},
	{"tpg.aborted", "count", "lower", "diag_p50_s on repair-atpg"},
	{"tpg.untestable", "count", "lower", "diag_p50_s on repair-atpg"},
	{"tpg.backtracks", "count", "lower", "diag_p50_s on repair-atpg"},
	{"tpg.useful_ratio", "ratio", "higher", "diag_p50_s on repair-atpg"},
	{"sim.ref_s", "s", "lower", "control: should move nothing"},
	{"pathtrace.root_s", "s", "lower", "diag_p50_s on stuckat-exact (outside op time: a probe on the root node)"},
	{"diagnose.search_s", "s", "lower", "diag_p50_s on repair-screen and stuckat-exact"},
	{"diagnose.diag_s", "s", "lower", "diag_p50_s on stuckat-exact"},
	{"diagnose.corr_s", "s", "lower", "diag_p50_s on repair-screen"},
	{"diagnose.rest_s", "s", "lower", "diag_p50_s on stuckat-exact (verify gate and tree bookkeeping)"},
	{"diagnose.nodes", "count", "lower", "diag_p50_s on repair-screen and stuckat-exact"},
	{"diagnose.trials", "count", "lower", "diag_p50_s on repair-screen"},
	{"diagnose.screened", "count", "higher", "diag_p50_s on repair-screen"},
	{"diagnose.candidates", "count", "lower", "diag_p50_s on repair-screen"},
	{"diagnose.simulations", "count", "lower", "diag_p50_s on repair-screen and stuckat-exact"},
	{"diagnose.verified", "count", "higher", "diag_p50_s on stuckat-exact (the verify gate runs once per tuple)"},
	{"diagnose.t1_reject_ratio", "ratio", "higher", "diag_p50_s on repair-screen"},
	{"diagnose.corr_ns_per_candidate", "ns", "lower", "diag_p50_s on repair-screen"},
	{"diagnose.root_h1_s", "s", "lower", "diag_p50_s on stuckat-exact (outside op time: a probe on the root node)"},
	{"diagnose.root_screen_s", "s", "lower", "diag_p50_s on repair-screen (outside op time: a probe on the root node)"},
	{"diagnose.cegar_s", "s", "lower", "diag_p50_s on repair-proven"},
	{"diagnose.cegar_iterations", "count", "lower", "diag_p50_s on repair-proven"},
	{"diagnose.cegar_added_vectors", "count", "lower", "diag_p50_s on repair-proven"},
	{"equiv.final_check_s", "s", "lower", "diag_p50_s on repair-proven (outside op time: the correctness re-proof)"},
	{"equiv.final_conflicts", "count", "lower", "diag_p50_s on repair-proven"},
	{"sim.trials", "count", "lower", "diag_p50_s on repair-screen and stuckat-exact"},
	{"sim.events", "count", "lower", "diag_p50_s on repair-screen and stuckat-exact"},
	{"sim.events_per_trial", "ratio", "lower", "diag_p50_s on repair-screen"},
	{"pathtrace.kept", "count", "lower", "diag_p50_s on stuckat-exact"},
	{"result.verify_failed", "count", "lower", "solved_ratio on every workload"},
	{"sat.conflicts", "count", "lower", "diag_p50_s on repair-proven (from the final re-proof only)"},
	{"sat.propagations", "count", "lower", "diag_p50_s on repair-proven (from the final re-proof only)"},
	{"op.rest_s", "s", "lower", "residual: op time minus its layer calls; should stay near 0"},
	{"proven_ratio", "ratio", "higher", "repair-proven only: ops whose repair RepairProven proved equivalent"},
	{"trace.overhead_ratio", "ratio", "lower", "traced over untraced diag_p50_s, minus 1"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary aggregates a workload run's ops.
type summary struct {
	ops, solved, proven, truncated int
	opS                            []float64 // op wall times, every op
	// fullOpS and rssMiB hold the op wall times and peak memory of the ops
	// that were not truncated: a truncated op runs and grows until its
	// budget ends it, so its time and memory measure the budget.
	fullOpS, rssMiB []float64
	traced          int
	tracedOpS       []float64
	untracedOpS     []float64
	sums            map[string]float64 // per-layer seconds and counts, summed over traced ops
}

func (s *summary) add(r *opResult) {
	s.ops++
	if r.solved {
		s.solved++
	}
	if r.proven {
		s.proven++
	}
	s.opS = append(s.opS, r.opS)
	if r.truncated {
		s.truncated++
	} else {
		s.fullOpS = append(s.fullOpS, r.opS)
		s.rssMiB = append(s.rssMiB, r.rssMiB)
	}
	if !r.traced {
		s.untracedOpS = append(s.untracedOpS, r.opS)
		return
	}
	s.traced++
	s.tracedOpS = append(s.tracedOpS, r.opS)
	if s.sums == nil {
		s.sums = map[string]float64{}
	}
	for k, v := range r.sums {
		s.sums[k] += v
	}
}

// endToEndMetrics computes the untraced run's metrics. Truncated ops count
// in diag_p50_s and solved_ratio, but not in the rate or the memory.
func (s *summary) endToEndMetrics(setupS float64) map[string]metricValue {
	v := map[string]float64{
		"diagnoses_per_s": ratio(float64(s.solved), sumOf(s.fullOpS)),
		"diag_p50_s":      median(s.opS),
		"solved_ratio":    ratio(float64(s.solved), float64(s.ops)),
		"setup_s":         setupS,
		"peak_rss_mib":    median(s.rssMiB),
	}
	return withUnits(endToEnd, v)
}

// attribution returns the traced ops' mean layer self times, which sum to
// the mean op time. The search splits into its Stats phase timers and a
// rest; RepairProven's rounds are not split (its Stats cover the last
// round only), so there the split is coarse: CEGAR as one layer.
func (s *summary) attribution(w workload) []row {
	n := float64(s.traced)
	if n == 0 {
		return nil
	}
	mean := func(name string) float64 { return s.sums[name] / n }
	rows := []row{{"bench.read_s", mean("bench.read_s")}, {"tpg.build_s", mean("tpg.build_s")}, {"sim.ref_s", mean("sim.ref_s")}}
	if w.kind == provenKind {
		rows = append(rows, row{"diagnose.cegar_s", mean("diagnose.cegar_s")})
	} else {
		rows = append(rows,
			row{"diagnose.diag_s", mean("diagnose.diag_s")},
			row{"diagnose.corr_s", mean("diagnose.corr_s")},
			row{"diagnose.rest_s", mean("diagnose.search_s") - mean("diagnose.diag_s") - mean("diagnose.corr_s")})
	}
	covered := 0.0
	for _, r := range rows {
		covered += r.value
	}
	return append(rows, row{"op.rest_s", sumOf(s.tracedOpS)/n - covered})
}

type row struct {
	name  string
	value float64
}

// perLayerMetrics computes the traced run's metrics: means per traced op,
// except the ratios, which divide sums. Workloads that do not reach a
// layer report 0 for it.
func (s *summary) perLayerMetrics(w workload) map[string]metricValue {
	n := math.Max(float64(s.traced), 1)
	v := map[string]float64{}
	for _, m := range perLayer {
		v[m.name] = s.sums[m.name] / n
	}
	for _, r := range s.attribution(w) {
		v[r.name] = r.value
	}
	if w.kind == stuckAtKind {
		// The op uses V from set-up, so the build time is set-up's.
		v["tpg.build_s"] = s.sums["tpg.setup_build_s"] / n
	}
	c := s.sums
	v["tpg.useful_ratio"] = ratio(c["tpg.generated"], c["tpg.generated"]+c["tpg.aborted"]+c["tpg.untestable"])
	v["diagnose.t1_reject_ratio"] = ratio(c["diagnose.screened"], c["diagnose.candidates"])
	v["diagnose.corr_ns_per_candidate"] = ratio(c["diagnose.corr_s"]*1e9, c["diagnose.candidates"])
	v["sim.events_per_trial"] = ratio(c["sim.events"], c["sim.trials"])
	v["proven_ratio"] = ratio(float64(s.proven), float64(s.ops))
	v["trace.overhead_ratio"] = 0
	if u := median(s.untracedOpS); u > 0 {
		v["trace.overhead_ratio"] = median(s.tracedOpS)/u - 1
	}
	return withUnits(perLayer, v)
}

func withUnits(specs []metricSpec, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		out[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// tail is the op time at the highest percentile with at least ten ops
// beyond it, as a percentile and value; ok is false below eleven ops.
func tail(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := n - 11 // ten ops lie strictly above s[idx]
	return 100 * (idx + 1) / n, s[idx], true
}

// printAttribution writes the traced run's attribution table and whether it
// confirms the workload's predicted dominant layer.
func printAttribution(out io.Writer, w workload, s *summary) {
	rows := s.attribution(w)
	if rows == nil {
		return
	}
	op := sumOf(s.tracedOpS) / float64(s.traced)
	fmt.Fprintf(out, "attribution %s: mean self time per traced op over %d ops\n", w.name, s.traced)
	best := rows[0]
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(out, "  %-20s %10.4f s %6.1f%%\n", r.name, r.value, 100*ratio(r.value, op))
		sum += r.value
		if r.name != "op.rest_s" && r.value > best.value {
			best = r
		}
	}
	fmt.Fprintf(out, "  %-20s %10.4f s (op time %.4f s; op.rest_s is the residual)\n", "sum", sum, op)
	verdict := "confirmed"
	if best.name != w.dominant {
		verdict = "refuted"
	}
	fmt.Fprintf(out, "  dominant layer %s at %.1f%%; predicted %s: %s\n", best.name, 100*ratio(best.value, op), w.dominant, verdict)
	if u := median(s.untracedOpS); u > 0 {
		t := median(s.tracedOpS)
		fmt.Fprintf(out, "  tracing overhead: diag_p50_s %.4f s traced vs %.4f s untraced (%+.1f%%)\n", t, u, 100*(t/u-1))
	}
	if w.kind == provenKind {
		n := float64(s.traced)
		fmt.Fprintln(out, "  the split is coarse: RepairProven takes no context, so its repair rounds and proofs are one layer")
		fmt.Fprintf(out, "  CEGAR per op: %.2f iterations, %.1f added vectors; final proof %.4f s, %.0f conflicts; %d of %d ops proven\n",
			s.sums["diagnose.cegar_iterations"]/n, s.sums["diagnose.cegar_added_vectors"]/n,
			s.sums["equiv.final_check_s"]/n, s.sums["equiv.final_conflicts"]/n, s.proven, s.ops)
	}
}

// printLayerMap writes each per-layer metric with the end-to-end metric and
// workload it is expected to move.
func printLayerMap(out io.Writer, m map[string]metricValue) {
	for _, spec := range perLayer {
		v := m[spec.name]
		fmt.Fprintf(out, "  %-32s %14.6g %-6s %s\n", spec.name, v.Value, v.Unit, spec.moves)
	}
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
