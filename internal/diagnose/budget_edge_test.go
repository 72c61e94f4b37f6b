package diagnose

import (
	"bytes"
	"context"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// journaledResume resumes a crashed run's journal with its own journal
// attached, so a resumed run can itself be crashed and resumed again.
func journaledResume(t *testing.T, journal []byte, c *circuitFixture, opt Options) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{Journal: j})
	ctx := telemetry.WithTracer(context.Background(), tr)
	res, err := ResumeFromJournal(ctx, bytes.NewReader(journal), c.c, c.devOut, c.pi, c.n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// checkpointNodeCounts extracts Stats.Nodes from every checkpoint in a
// journal, in emission order.
func checkpointNodeCounts(t *testing.T, journal []byte) []int {
	t.Helper()
	var nodes []int
	_, err := telemetry.ReplayJournal(bytes.NewReader(journal), telemetry.ReplayOptions{}, func(ev telemetry.ParsedEvent) error {
		if ev.Event == telemetry.EventCheckpoint {
			cp, err := DecodeCheckpoint(ev)
			if err != nil {
				return err
			}
			nodes = append(nodes, cp.Stats.Nodes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

type circuitFixture struct {
	c      *circuit.Circuit
	devOut [][]uint64
	pi     [][]uint64
	n      int
}

func TestBudgetZeroValueIsUnlimited(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	plain := RunContext(context.Background(), c, devOut, pi, n, StuckAtModel{}, opt)

	opt.Budget = Budget{}
	budgeted := RunContext(context.Background(), c, devOut, pi, n, StuckAtModel{}, opt)
	if budgeted.Status != StatusComplete {
		t.Fatalf("zero budget status = %v, want Complete", budgeted.Status)
	}
	if got, want := solutionKeys(budgeted), solutionKeys(plain); !equalStrings(got, want) {
		t.Errorf("zero budget solutions = %v, want %v", got, want)
	}
}

// Negative limits are not "immediately exhausted": only positive values
// arm a counted budget, so negatives behave like the zero value.
func TestBudgetNegativeLimitsAreUnlimited(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	plain := RunContext(context.Background(), c, devOut, pi, n, StuckAtModel{}, opt)

	opt.Budget = Budget{MaxNodes: -1, MaxSimulations: -100, MaxCandidates: -7}
	if !opt.Budget.Unlimited() {
		// Unlimited() only recognises the zero value; that is fine, the
		// search itself must still not trip on negatives.
		t.Log("negative budget is not Unlimited(); checking the search ignores it")
	}
	res := RunContext(context.Background(), c, devOut, pi, n, StuckAtModel{}, opt)
	if res.Status != StatusComplete {
		t.Fatalf("negative budget status = %v, want Complete", res.Status)
	}
	if got, want := solutionKeys(res), solutionKeys(plain); !equalStrings(got, want) {
		t.Errorf("negative budget solutions = %v, want %v", got, want)
	}
}

// Counted budgets promise deterministic truncation: the same inputs and the
// same budget stop at the same point with the same partial answer, at any
// worker count. The cuts land mid-way through a Heuristic-1 fan-out (the
// MaxSimulations 22 and 130 rows) or a correction-screen fan-out (the rest),
// and the expected status, solutions and counters are literals recorded
// before the trial loops moved onto the ordered pool fan-out, so any drift
// in where a budget stops the search shows up here.
func TestBudgetTruncationIsDeterministic(t *testing.T) {
	relaxed := Params{H1: 0.5, H2: 0.9, H3: 0.97}
	final := Params{H1: 0.3, H2: 0.7, H3: 0.95}
	cases := []struct {
		budget Budget
		keys   []string
		stats  Stats
	}{
		{Budget{MaxNodes: 6}, []string{"L13->L78.0/0|L17/0"},
			Stats{Nodes: 6, Rounds: 3, Trials: 63, Screened: 429, Schedule: final, Simulations: 174, Candidates: 492, Verified: 1}},
		{Budget{MaxSimulations: 22}, nil,
			Stats{Nodes: 2, Rounds: 1, Schedule: relaxed, Simulations: 22}},
		{Budget{MaxSimulations: 130}, nil,
			Stats{Nodes: 4, Rounds: 2, Trials: 35, Screened: 305, Schedule: final, Simulations: 130, Candidates: 340}},
		{Budget{MaxSimulations: 160}, nil,
			Stats{Nodes: 4, Rounds: 2, Trials: 52, Screened: 371, Schedule: final, Simulations: 160, Candidates: 423}},
		{Budget{MaxCandidates: 100}, nil,
			Stats{Nodes: 2, Rounds: 1, Trials: 8, Screened: 92, Schedule: relaxed, Simulations: 50, Candidates: 100}},
		{Budget{MaxCandidates: 420}, nil,
			Stats{Nodes: 4, Rounds: 2, Trials: 50, Screened: 370, Schedule: final, Simulations: 158, Candidates: 420}},
	}
	c, devOut, pi, n := resumeFixture(t)
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: tc.budget, Workers: workers}
			res, _ := journaledRun(t, c, devOut, pi, n, opt)
			if res.Status != StatusBudgetExhausted {
				t.Errorf("%+v workers=%d: status = %v, want BudgetExhausted", tc.budget, workers, res.Status)
			}
			if got := solutionKeys(res); !equalStrings(got, tc.keys) {
				t.Errorf("%+v workers=%d: solutions = %v, want %v", tc.budget, workers, got, tc.keys)
			}
			if got := res.Stats.Deterministic(); got != tc.stats {
				t.Errorf("%+v workers=%d: stats\n got  %+v\n want %+v", tc.budget, workers, got, tc.stats)
			}
		}
	}
}

// TestBudgetExhaustionAtCheckpointBoundary arms the node budget with the
// exact node count recorded in a mid-run checkpoint, so exhaustion trips at
// a round boundary — the same instant a checkpoint is written. The resumed
// run must still converge and its counters must not regress.
func TestBudgetExhaustionAtCheckpointBoundary(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	full, journal := journaledRun(t, c, devOut, pi, n, opt)
	if len(full.Solutions) == 0 {
		t.Fatal("reference run found no solutions")
	}

	counts := checkpointNodeCounts(t, journal)
	boundary := 0
	for _, nc := range counts {
		if nc > 0 && nc < full.Stats.Nodes {
			boundary = nc // keep the last mid-run boundary
		}
	}
	if boundary == 0 {
		t.Fatalf("no mid-run checkpoint boundary in node counts %v", counts)
	}

	truncOpt := opt
	truncOpt.Budget = Budget{MaxNodes: int64(boundary)}
	trunc, crashJournal := journaledRun(t, c, devOut, pi, n, truncOpt)
	if trunc.Status != StatusBudgetExhausted {
		t.Fatalf("boundary-budget run status = %v, want BudgetExhausted", trunc.Status)
	}

	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(crashJournal), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resume after boundary exhaustion = %v, want %v", got, want)
	}
	if err := res.Stats.MonotoneSince(trunc.Stats.Deterministic()); err != nil {
		t.Errorf("resumed stats regressed: %v", err)
	}
}

// TestMonotoneSinceAcrossChainedResumes crashes a run twice — the second
// crash happens inside a resumed run — and checks the counters only ever
// grow along the chain while the final answer still converges.
func TestMonotoneSinceAcrossChainedResumes(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	full, _ := journaledRun(t, c, devOut, pi, n, opt)

	firstOpt := opt
	firstOpt.Budget = Budget{MaxNodes: 4}
	first, firstJournal := journaledRun(t, c, devOut, pi, n, firstOpt)
	if first.Status != StatusBudgetExhausted {
		t.Fatalf("first crash status = %v, want BudgetExhausted", first.Status)
	}

	fx := &circuitFixture{c: c, devOut: devOut, pi: pi, n: n}
	secondOpt := opt
	secondOpt.Budget = Budget{MaxNodes: int64(first.Stats.Nodes) + 4}
	second, secondJournal := journaledResume(t, firstJournal, fx, secondOpt)
	if second.Status != StatusBudgetExhausted {
		t.Fatalf("second crash status = %v, want BudgetExhausted (stats %+v)", second.Status, second.Stats)
	}
	if err := second.Stats.MonotoneSince(first.Stats.Deterministic()); err != nil {
		t.Errorf("second run's stats regressed below the first's: %v", err)
	}

	final, err := ResumeFromJournal(context.Background(), bytes.NewReader(secondJournal), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusComplete {
		t.Fatalf("final resume status = %v, want Complete", final.Status)
	}
	if got, want := solutionKeys(final), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("final solutions = %v, want %v", got, want)
	}
	if err := final.Stats.MonotoneSince(second.Stats.Deterministic()); err != nil {
		t.Errorf("final stats regressed below the second crash's: %v", err)
	}
}
