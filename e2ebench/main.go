// Command e2ebench is the repository's end-to-end benchmark: it times whole
// diagnoses on paper-scale Table 1/2 cells, from the netlist text in to
// checked corrections out, and attributes each op's time to the pipeline's
// layers.
//
// Usage (from the repository root; e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload repair-screen --seed 1 --seconds 20 --trace 0
//	e2ebench --workload all --seconds 20 --trace 1
//
// Each workload is a fixed pool of cells and trial seeds, set up from
// internal/gen, errmodel.Inject and fault.PickObservable; the library sees
// only the generated netlist text and, for stuck-at, the design's vector
// set. The loop is closed: one op at a time, whole passes over the pool in
// an order drawn from --seed, as many as come nearest to --seconds. Every op's
// output is checked after the op; a failed check makes the command exit 1.
// The last line of standard output is the JSON result; the report, with the
// run's stamp, determinism digest and (in the traced run) the attribution
// table, goes to standard error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], paperWorkloads(), ".bench_build/spans", os.Stdout, os.Stderr))
}

// A run sets its workload up at least minSetupReps times and until the
// set-ups have taken setupSeconds, at most maxSetupReps times; setup_s is
// the median.
const (
	minSetupReps = 11
	maxSetupReps = 101
	setupSeconds = 3.0
)

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	sum       *summary               // the ops behind the metrics
}

// run parses the command line and runs the named workload of ws, or all of
// them; the traced run writes its spans under spanDir.
func run(args []string, ws []workload, spanDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: orders the ops of each pass")
	seconds := fs.Float64("seconds", 20, "measure the whole number of passes nearest to this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics, spans and attribution")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *name != "all" {
		w, ok := findWorkload(ws, *name)
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, spanDir: spanDir, log: stderr}
	fmt.Fprintf(stderr, "e2ebench seed=%d nproc=%d GOMAXPROCS=%d go=%s run_seconds=%g trace=%d\n",
		cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seconds, *trace)

	var results []result
	for _, w := range ws {
		r, err := runWorkload(context.Background(), w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		results = append(results, *r)
	}
	final := results[0]
	if len(ws) > 1 {
		final = result{Correct: true, Metrics: map[string]metricValue{}}
		for i, r := range results {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for k, v := range r.Metrics {
				final.Metrics[ws[i].name+"/"+k] = v
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	spanDir string
	log     io.Writer
}

// runWorkload sets a workload up, measures it and reports it.
func runWorkload(ctx context.Context, w workload, cfg runConfig) (*result, error) {
	var insts []*instance
	var setupTimes []float64
	for len(setupTimes) < minSetupReps || len(setupTimes) < maxSetupReps && sumOf(setupTimes) < setupSeconds {
		runtime.GC()
		t0 := time.Now()
		var err error
		if insts, err = setup(ctx, w); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	sum := &summary{}
	digests := map[string]string{}
	var spans []span
	var checkErrs []error
	var unsolved []string // the first op's status for each unsolved instance
	unstable := 0
	rng := rand.New(rand.NewSource(cfg.seed))
	epoch := time.Now()
	passes := 0
	// Whole passes keep every run's mix the same. The run ends at the pass
	// count nearest to --seconds: another pass starts only while less than
	// half a pass would overshoot.
	for lastPass := 0.0; passes == 0 || time.Since(epoch).Seconds()+lastPass/2 < cfg.seconds; {
		passStart := time.Now()
		for _, i := range rng.Perm(len(insts)) {
			inst := insts[i]
			modes := []bool{false}
			if cfg.traced {
				// Each instance runs once untraced and once traced, in an
				// order that alternates by pass, for the overhead figure.
				modes = []bool{passes%2 == 1, passes%2 == 0}
			}
			for _, traced := range modes {
				var sp *[]span
				if traced {
					sp = &spans
				}
				r, err := runOp(ctx, w, inst, sum.ops, epoch, sp)
				if err != nil {
					return nil, err
				}
				sum.add(r)
				if r.checkErr != nil {
					checkErrs = append(checkErrs, r.checkErr)
				}
				if d, ok := digests[inst.id]; !ok {
					digests[inst.id] = r.digest
					if !r.solved && r.checkErr == nil {
						why := r.status
						if r.err != nil {
							why += ": " + r.err.Error()
						}
						unsolved = append(unsolved, inst.id+" "+why)
					}
				} else if d != r.digest {
					unstable++
				}
			}
		}
		passes++
		lastPass = time.Since(passStart).Seconds()
	}
	elapsed := time.Since(epoch).Seconds()

	res := &result{
		Correct:   len(checkErrs) == 0,
		Attempted: sum.ops,
		Failed:    sum.ops - sum.solved,
		sum:       sum,
	}
	if cfg.traced {
		res.Metrics = sum.perLayerMetrics(w)
	} else {
		res.Metrics = sum.endToEndMetrics(median(setupTimes))
	}

	out := cfg.log
	fmt.Fprintf(out, "workload %s: %d instances, %d set-ups, %d passes, %d ops in %.2f s, %d solved, %d truncated, seed %d, op budget %s\n",
		w.name, len(insts), len(setupTimes), passes, sum.ops, elapsed, sum.solved, sum.truncated, cfg.seed, w.budget)
	fmt.Fprintf(out, "  digest %s", digestOf(digests))
	if unstable > 0 {
		fmt.Fprintf(out, " (%d repeated ops changed their outcome)", unstable)
	}
	fmt.Fprintln(out)
	if pct, v, ok := tail(sum.opS); ok {
		fmt.Fprintf(out, "  diag_tail_s p%d = %.4f s over %d ops (10 beyond it)\n", pct, v, sum.ops)
	}
	for _, u := range unsolved {
		fmt.Fprintf(out, "  unsolved: %s\n", u)
	}
	for _, err := range checkErrs {
		fmt.Fprintf(out, "  CHECK FAILED: %v\n", err)
	}
	if cfg.traced {
		printAttribution(out, w, sum)
		fmt.Fprintln(out, "  per-layer metrics, and the end-to-end metric each should move:")
		printLayerMap(out, res.Metrics)
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "  %d spans written to %s\n", len(spans), path)
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(out, "  %-16s %12.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
	}
	return res, nil
}

// digestOf hashes every instance's outcome digest in instance order: two
// runs of the same code print the same value.
func digestOf(digests map[string]string) string {
	ids := make([]string, 0, len(digests))
	for id := range digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%s\n", id, digests[id])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// resetPeakRSS restarts the kernel's peak-RSS watermark, so each op has a
// peak of its own. Linux only.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak spans the process
}

// peakRSSMiB reads the process's peak resident set (VmHWM). Linux only;
// elsewhere it reports 0.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
