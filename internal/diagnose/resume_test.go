package diagnose

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/fault"
	"dedc/internal/gen"
	"dedc/internal/sim"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// journaledRun runs an exact stuck-at search with a journal attached and
// returns the result plus the journal bytes — the crash artefact the resume
// tests feed back in.
func journaledRun(t *testing.T, c *circuit.Circuit, devOut, pi [][]uint64, n int, opt Options) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	j := telemetry.NewJournal(&buf)
	tr := telemetry.NewTracer(telemetry.Options{Journal: j})
	ctx := telemetry.WithTracer(context.Background(), tr)
	res := RunContext(ctx, c, devOut, pi, n, StuckAtModel{}, opt)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func solutionKeys(res *Result) []string {
	keys := make([]string, len(res.Solutions))
	for i, s := range res.Solutions {
		keys[i] = setKey(s.Corrections)
	}
	sort.Strings(keys)
	return keys
}

// resumeFixture is a 2-fault alu4 diagnosis: big enough that a tight node
// budget truncates it mid-tree with checkpoints in the journal.
func resumeFixture(t *testing.T) (*circuit.Circuit, [][]uint64, [][]uint64, int) {
	t.Helper()
	c := gen.Alu(4)
	vecs := tpg.BuildVectors(c, tpg.Options{Random: 256, Seed: 7, Deterministic: true})
	fs := pickDetectedFaults(c, 2, vecs.PI, vecs.N, 23)
	if fs == nil {
		t.Fatal("no observable 2-fault set")
	}
	device := fault.Inject(c, fs...)
	return c, DeviceOutputs(device, vecs.PI, vecs.N), vecs.PI, vecs.N
}

func TestResumeFromJournalConverges(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}

	full, _ := journaledRun(t, c, devOut, pi, n, opt)
	if len(full.Solutions) == 0 {
		t.Fatalf("reference run found no solutions (stats %+v)", full.Stats)
	}

	// Truncate a second run mid-search with a node budget, as a stand-in for
	// a crash (the journal is identical up to the cut either way).
	truncOpt := opt
	truncOpt.Budget = Budget{MaxNodes: 4}
	trunc, journal := journaledRun(t, c, devOut, pi, n, truncOpt)
	if trunc.Status != StatusBudgetExhausted {
		t.Fatalf("truncated run status = %v, want BudgetExhausted", trunc.Status)
	}
	if !bytes.Contains(journal, []byte(`"event":"checkpoint"`)) {
		t.Fatal("truncated journal holds no checkpoint")
	}

	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(journal), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resumed solutions = %v, want %v", got, want)
	}
	if err := res.Stats.MonotoneSince(trunc.Stats.Deterministic()); err != nil {
		t.Errorf("resumed stats not monotone over the crashed run's: %v", err)
	}
	if res.Stats.Verified < len(res.Solutions) {
		t.Errorf("Verified = %d < %d solutions; resumed solutions were not re-proven", res.Stats.Verified, len(res.Solutions))
	}
}

func TestResumeFromTruncatedJournalTail(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	full, journal := journaledRun(t, c, devOut, pi, n, opt)

	// Chop the journal mid-line, the artefact a SIGKILL leaves behind.
	cut := journal[:len(journal)*2/3]
	if cut[len(cut)-1] == '\n' {
		cut = cut[:len(cut)-1]
	}
	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(cut), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resumed solutions = %v, want %v", got, want)
	}
}

// TestResumeSkipsCheckpointWithMangledKey flips one bit of the last
// checkpoint's "frontier" key. The line is still valid JSON, but the state
// is corrupt: resume must fall back to the previous checkpoint and still
// converge, not continue from an empty frontier.
func TestResumeSkipsCheckpointWithMangledKey(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7}
	full, journal := journaledRun(t, c, devOut, pi, n, opt)
	last, err := LatestCheckpoint(bytes.NewReader(journal))
	if err != nil || last == nil || last.Round < 2 {
		t.Fatalf("want a checkpoint past round 1, got %+v (err %v)", last, err)
	}

	at := bytes.LastIndex(journal, []byte(`"frontier"`))
	mangled := append([]byte(nil), journal...)
	mangled[at+4] ^= 0x40 // "frontier" -> "fro.tier"
	cp, err := LatestCheckpoint(bytes.NewReader(mangled))
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Step != last.Step || cp.Round != last.Round-1 {
		t.Fatalf("mangled journal resumes from %+v, want the checkpoint before step %d round %d", cp, last.Step, last.Round)
	}
	res, err := ResumeFromJournal(context.Background(), bytes.NewReader(mangled), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("resumed solutions = %v, want %v", got, want)
	}
}

func TestResumeEmptyJournalRunsFresh(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true}
	full, _ := journaledRun(t, c, devOut, pi, n, opt)
	res, err := ResumeFromJournal(context.Background(), strings.NewReader(""), c, devOut, pi, n, StuckAtModel{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := solutionKeys(res), solutionKeys(full); !equalStrings(got, want) {
		t.Errorf("fresh-fallback solutions = %v, want %v", got, want)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: Budget{MaxNodes: 4}}
	if _, journal := journaledRun(t, c, devOut, pi, n, opt); true {
		cases := []struct {
			name   string
			mutate func(*Options)
		}{
			{"seed", func(o *Options) { o.Seed = 8 }},
			{"max_errors", func(o *Options) { o.MaxErrors = 3 }},
			{"exact", func(o *Options) { o.Exact = false }},
			{"policy", func(o *Options) { o.Policy = PolicyDFS }},
		}
		for _, tc := range cases {
			bad := Options{MaxErrors: 2, Exact: true, Seed: 7}
			tc.mutate(&bad)
			if _, err := ResumeFromJournal(context.Background(), bytes.NewReader(journal), c, devOut, pi, n, StuckAtModel{}, bad); err == nil {
				t.Errorf("%s mismatch: resume succeeded, want error", tc.name)
			}
		}
	}
}

func TestResumeRejectsForeignInputs(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true, Seed: 7, Budget: Budget{MaxNodes: 6}}
	_, journal := journaledRun(t, c, devOut, pi, n, opt)
	cp, err := LatestCheckpoint(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint in journal")
	}
	// Same configuration, different circuit: the replay must fail loudly
	// instead of continuing against the wrong tree.
	other := gen.Alu(2)
	otherOut := DeviceOutputs(other, pi[:len(other.PIs)], n)
	fresh := Options{MaxErrors: 2, Exact: true, Seed: 7}
	if _, err := ResumeFromCheckpoint(context.Background(), other, otherOut, pi[:len(other.PIs)], n, StuckAtModel{}, fresh, cp); err == nil {
		t.Error("resume against a different circuit succeeded, want replay error")
	}
}

func TestVerifiedGateCountsAndToggle(t *testing.T) {
	c, devOut, pi, n := resumeFixture(t)
	opt := Options{MaxErrors: 2, Exact: true}
	res := Run(c, devOut, pi, n, StuckAtModel{}, opt)
	if len(res.Solutions) == 0 {
		t.Fatal("no solutions")
	}
	if res.Stats.Verified < len(res.Solutions) {
		t.Errorf("Verified = %d, want >= %d (gate is on by default)", res.Stats.Verified, len(res.Solutions))
	}
	opt.NoVerify = true
	off := Run(c, devOut, pi, n, StuckAtModel{}, opt)
	if off.Stats.Verified != 0 {
		t.Errorf("Verified = %d with NoVerify, want 0", off.Stats.Verified)
	}
	if got, want := solutionKeys(off), solutionKeys(res); !equalStrings(got, want) {
		t.Errorf("NoVerify changed the solution set: %v vs %v", got, want)
	}
}

func TestVerifySolutionRejectsUnproven(t *testing.T) {
	c := gen.Alu(4)
	n := 128
	pi := sim.RandomPatterns(len(c.PIs), n, 3)
	good := DeviceOutputs(c, pi, n)
	fs := pickDetectedFaults(c, 1, pi, n, 5)
	if fs == nil {
		t.Fatal("no observable fault")
	}
	bad := DeviceOutputs(fault.Inject(c, fs...), pi, n)

	r := &runState{base: c, pi: pi, specOut: good, n: n, w: sim.Words(n), res: &Result{}}
	if !r.verifySolution(nil) {
		t.Error("gate rejected a circuit that matches its reference")
	}
	r.specOut = bad
	if r.verifySolution(nil) {
		t.Error("gate passed a circuit that does not match its reference")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
