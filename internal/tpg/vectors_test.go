package tpg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"dedc/internal/fault"
	"dedc/internal/gen"
)

// resultDigest hashes everything a vector build returns: the PI rows, the
// pattern count, the PODEM counts, the backtrack total and the coverage.
func resultDigest(r *Result) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(r.PI)))
	for _, row := range r.PI {
		put(uint64(len(row)))
		for _, w := range row {
			put(w)
		}
	}
	put(uint64(r.N))
	put(uint64(r.Generated))
	put(uint64(r.Untestable))
	put(uint64(r.Aborted))
	put(uint64(r.Backtracks))
	put(math.Float64bits(r.Coverage))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinnedBuilds are PODEM vector builds whose results are pinned by hash.
// Few random patterns leave hundreds of faults to PODEM, so both generated
// tests with their pattern append and aborted searches are covered.
var pinnedBuilds = []struct {
	circuit string
	opt     Options
	digest  string
}{
	{"c432*", Options{Random: 16, Seed: 1, Deterministic: true},
		"0d8a5842ac16876cf95a6a04aebb95357bcf38f6812d1c2960345757e5c6cf7d"},
	{"c1355*", Options{Random: 16, Seed: 1, Deterministic: true},
		"7af088590c83cb26f1b50bae1001a6b5c3c7cafee30e8c3e48baa37f37503799"},
}

// TestBuildVectorsPinned: vector builds stay bit-identical to the recorded
// results. Any change to PODEM's search shows here.
func TestBuildVectorsPinned(t *testing.T) {
	for _, pb := range pinnedBuilds {
		bm, ok := gen.ByName(pb.circuit)
		if !ok {
			t.Fatalf("unknown circuit %q", pb.circuit)
		}
		if got := resultDigest(BuildVectors(bm.Build(), pb.opt)); got != pb.digest {
			t.Errorf("%s: digest %s, want %s", pb.circuit, got, pb.digest)
		}
	}
}

// TestBuildVectorsCancelled: a build whose context is already cancelled
// reports Cancelled once PODEM has faults left, and still returns the
// well-formed random vector set.
func TestBuildVectorsCancelled(t *testing.T) {
	c := gen.Random(gen.RandomOptions{PIs: 10, Gates: 120, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := BuildVectorsContext(ctx, c, Options{Random: 32, Seed: 3, Deterministic: true})
	if !res.Cancelled {
		t.Error("cancelled build did not report Cancelled")
	}
	if res.N != 32 || len(res.PI) != len(c.PIs) || res.Generated+res.Untestable+res.Aborted != 0 {
		t.Errorf("partial result malformed: N=%d rows=%d generated=%d untestable=%d aborted=%d",
			res.N, len(res.PI), res.Generated, res.Untestable, res.Aborted)
	}
}

// TestCoverageMatchesDetected: Coverage is the detected fraction of the
// collapsed faults on the returned V, whether or not PODEM appended
// patterns to it.
func TestCoverageMatchesDetected(t *testing.T) {
	cases := []struct {
		name      string
		opt       Options
		generates bool
	}{
		{"random only", Options{Random: 64, Seed: 2}, false},
		{"podem adds none", Options{Random: 2048, Seed: 1, Deterministic: true}, false},
		{"podem adds some", Options{Random: 16, Seed: 1, Deterministic: true}, true},
	}
	c := gen.Alu(4)
	reps, _ := fault.Collapse(c)
	for _, tc := range cases {
		r := BuildVectors(c, tc.opt)
		if (r.Generated > 0) != tc.generates {
			t.Fatalf("%s: generated %d patterns, case expects generated>0 == %v", tc.name, r.Generated, tc.generates)
		}
		want := fault.Coverage(fault.Detected(c, reps, r.PI, r.N))
		if r.Coverage != want {
			t.Errorf("%s: Coverage %v, fresh fault simulation on V gives %v", tc.name, r.Coverage, want)
		}
	}
}
