package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dedc/internal/circuit"
	"dedc/internal/telemetry"
)

// poolCircuit builds a random circuit plus an engine over random patterns.
func poolCircuit(t *testing.T, seed int64, nGate, n int) (*circuit.Circuit, *Engine, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := randomCircuit(rng, 6, nGate)
	pi := RandomPatterns(len(c.PIs), n, rng.Int63())
	return c, NewEngine(c, pi, n), n
}

func TestEnginePoolEachCoversAllIndices(t *testing.T) {
	_, e, _ := poolCircuit(t, 1, 40, 256)
	for _, size := range []int{1, 2, 4, 8} {
		p := NewEnginePool(size)
		reg := telemetry.NewRegistry()
		p.Instrument(reg)
		p.Bind(e)
		const n = 97 // not a multiple of any pool size
		visits := make([]atomic.Int32, n)
		var folded []int
		p.Each(nil, n, func(we *Engine, worker, i int) {
			if we == nil {
				t.Errorf("size %d: worker %d got nil engine", size, worker)
			}
			visits[i].Add(1)
		}, func(i int) {
			if visits[i].Load() != 1 {
				t.Errorf("size %d: fold(%d) ran before its work", size, i)
			}
			folded = append(folded, i)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("size %d: index %d visited %d times", size, i, got)
			}
		}
		for i, got := range folded {
			if got != i {
				t.Fatalf("size %d: fold order %v, want 0..%d", size, folded, n-1)
			}
		}
		if len(folded) != n {
			t.Fatalf("size %d: %d folds, want %d", size, len(folded), n)
		}
		if got := p.CTrials.Value(); got != n {
			t.Errorf("size %d: sim.pool.trials = %d, want %d", size, got, n)
		}
		if size == 1 && p.CSteals.Value() != 0 {
			t.Errorf("sequential pool recorded %d steals", p.CSteals.Value())
		}
	}
}

func TestEnginePoolEachStop(t *testing.T) {
	_, e, _ := poolCircuit(t, 2, 40, 256)
	for _, size := range []int{1, 4} {
		p := NewEnginePool(size)
		p.Bind(e)
		calls := atomic.Int32{}
		folds := 0
		p.Each(func() bool { return true }, 1000, func(*Engine, int, int) {
			calls.Add(1)
		}, func(int) { folds++ })
		if got := calls.Load(); got != 0 || folds != 0 {
			t.Errorf("size %d: stop=true still ran %d items, %d folds", size, got, folds)
		}
	}
}

// TestEnginePoolFoldPrefix stops a fan-out part-way: the folds must cover
// exactly the items whose work ran, in index order, with no gaps — the
// prefix a caller's stats are accumulated over.
func TestEnginePoolFoldPrefix(t *testing.T) {
	_, e, _ := poolCircuit(t, 7, 40, 256)
	for _, size := range []int{1, 2, 4} {
		p := NewEnginePool(size)
		p.Bind(e)
		const n = 500
		ran := make([]atomic.Bool, n)
		var polls atomic.Int32
		var folded []int
		p.Each(func() bool { return polls.Add(1) > 100 }, n, func(_ *Engine, _, i int) {
			ran[i].Store(true)
		}, func(i int) { folded = append(folded, i) })
		if len(folded) == 0 || len(folded) == n {
			t.Fatalf("size %d: %d folds, want a strict part of %d", size, len(folded), n)
		}
		for i := range ran {
			want := i < len(folded)
			if ran[i].Load() != want || (want && folded[i] != i) {
				t.Fatalf("size %d: item %d ran=%v but folds are %v", size, i, ran[i].Load(), folded)
			}
		}
	}
}

// TestEnginePoolFoldBeforeNextStop pins the single-worker contract that
// counted budgets rely on: fold(i) runs right after work(i) and before stop
// is polled for item i+1, so a stop that reads what the folds accumulated
// cuts the loop at an exact item.
func TestEnginePoolFoldBeforeNextStop(t *testing.T) {
	_, e, _ := poolCircuit(t, 8, 40, 256)
	p := NewEnginePool(1)
	p.Bind(e)
	var log []string
	folded := 0
	p.Each(func() bool {
		log = append(log, fmt.Sprintf("stop@%d", folded))
		return folded >= 3
	}, 10, func(_ *Engine, _, i int) {
		log = append(log, fmt.Sprintf("work%d", i))
	}, func(i int) {
		log = append(log, fmt.Sprintf("fold%d", i))
		folded++
	})
	want := "stop@0 work0 fold0 stop@1 work1 fold1 stop@2 work2 fold2 stop@3"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("call order\n got  %s\n want %s", got, want)
	}
}

func TestEnginePoolPanicReraised(t *testing.T) {
	_, e, _ := poolCircuit(t, 3, 40, 256)
	for _, size := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("size %d: worker panic not re-raised", size)
				}
				if s, ok := v.(string); size > 1 && (!ok || !strings.Contains(s, "pool worker")) {
					t.Fatalf("size %d: unexpected panic value %v", size, v)
				}
			}()
			p := NewEnginePool(size)
			p.Bind(e)
			p.Each(nil, 50, func(_ *Engine, _, i int) {
				if i == 17 {
					panic("boom")
				}
			}, func(int) {})
		}()
	}
}

// trialSignature runs one complement-forcing trial on line l and folds the
// outcome (changed-line set and the trial values it produced) into a hash —
// the per-item result the determinism comparison shards by index.
func trialSignature(e *Engine, l circuit.Line) uint64 {
	base := e.BaseVal(l)
	forced := make([]uint64, len(base))
	for i, w := range base {
		forced[i] = ^w
	}
	var h uint64 = 1469598103934665603
	for _, cl := range e.Trial(l, forced) {
		h = (h ^ uint64(cl)) * 1099511628211
		for _, w := range e.TrialVal(cl) {
			h = (h ^ w) * 1099511628211
		}
	}
	return h
}

// TestEnginePoolTrialHammer drives complement trials for every line across
// pool sizes, all workers reading the shared base-value matrix while running
// private trial propagation concurrently. Under -race this is the shared-
// state safety proof; the index-sharded signatures double as the
// bit-identity check against the sequential pool.
func TestEnginePoolTrialHammer(t *testing.T) {
	c, e, _ := poolCircuit(t, 4, 120, 512)
	n := c.NumLines()
	want := make([]uint64, n)
	seq := NewEnginePool(1)
	seq.Bind(e)
	seq.Each(nil, n, func(we *Engine, _, i int) {
		want[i] = trialSignature(we, circuit.Line(i))
	}, func(int) {})
	for _, size := range []int{2, 3, 8} {
		p := NewEnginePool(size)
		p.Bind(e)
		for round := 0; round < 3; round++ {
			got := make([]uint64, n)
			p.Each(nil, n, func(we *Engine, worker, i int) {
				got[i] = trialSignature(we, circuit.Line(i))
			}, func(int) {})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d round %d: pooled trial results diverge from sequential", size, round)
			}
		}
	}
}

// TestEnginePoolRebind moves one pool across engines of the same and of a
// different circuit shape; results must always match a fresh sequential
// engine on the current binding.
func TestEnginePoolRebind(t *testing.T) {
	_, e1, _ := poolCircuit(t, 5, 80, 256)
	c2, e2, _ := poolCircuit(t, 6, 150, 1024) // different shape: forces re-fork
	p := NewEnginePool(4)
	for round, e := range []*Engine{e1, e2, e1} {
		p.Bind(e)
		ckt := e.C
		n := ckt.NumLines()
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			want[i] = trialSignature(e, circuit.Line(i))
		}
		got := make([]uint64, n)
		p.Each(nil, n, func(we *Engine, _, i int) {
			got[i] = trialSignature(we, circuit.Line(i))
		}, func(int) {})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (%d lines): rebound pool diverges", round, n)
		}
	}
	_ = c2
}

func TestSimulateParallelMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(rng, 5, 60)
		n := 64 * 32 // 32 words: enough for 4 workers at the 8-word floor
		pi := RandomPatterns(len(c.PIs), n, rng.Int63())
		want := Simulate(c, pi, n)
		for _, workers := range []int{0, 1, 2, 3, 4, 16} {
			got := SimulateParallel(c, pi, n, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers %d: SimulateParallel diverges from Simulate", trial, workers)
			}
		}
	}
}

func TestSimulateParallelNarrowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 4, 30)
	n := 70 // 2 words: below the per-worker floor, must take the sequential path
	pi := RandomPatterns(len(c.PIs), n, rng.Int63())
	if got, want := SimulateParallel(c, pi, n, 8), Simulate(c, pi, n); !reflect.DeepEqual(got, want) {
		t.Fatal("narrow-batch fallback diverges from Simulate")
	}
}
