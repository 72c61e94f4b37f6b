package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0); got != 0 {
		t.Errorf("empty q=0: got %d, want 0", got)
	}
	if got := empty.Quantile(1); got != 0 {
		t.Errorf("empty q=1: got %d, want 0", got)
	}
	if got := empty.Max(); got != 0 {
		t.Errorf("empty max: got %d, want 0", got)
	}

	var single Histogram
	single.Observe(100)
	// 100 has bit length 7, so every quantile reports the bucket edge 127.
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 127 {
			t.Errorf("single q=%v: got %d, want 127", q, got)
		}
	}
	if got := single.Max(); got != 100 {
		t.Errorf("single max: got %d, want 100", got)
	}

	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// q=0 must land in the first non-empty bucket (value 1, edge 1).
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q=0: got %d, want 1", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Errorf("q=1: got %d, want 1023", got)
	}
	if got := h.Max(); got != 1000 {
		t.Errorf("max: got %d, want 1000", got)
	}

	var zeros Histogram
	zeros.Observe(0)
	zeros.Observe(-5) // clamped to 0
	if got := zeros.Quantile(1); got != 0 {
		t.Errorf("zeros q=1: got %d, want 0", got)
	}
	if got := zeros.Max(); got != 0 {
		t.Errorf("zeros max: got %d, want 0", got)
	}

	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil q=0.5: got %d, want 0", got)
	}
	if got := nilH.Max(); got != 0 {
		t.Errorf("nil max: got %d, want 0", got)
	}
}

func TestSnapshotHistogramFields(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	snap := reg.Snapshot()
	m, ok := snap["lat"].(map[string]any)
	if !ok {
		t.Fatalf("snapshot lat = %T, want map", snap["lat"])
	}
	if m["p90"] != h.Quantile(0.9) {
		t.Errorf("p90 = %v, want %v", m["p90"], h.Quantile(0.9))
	}
	if m["max"] != int64(100) {
		t.Errorf("max = %v, want 100", m["max"])
	}
}

// populate fills a registry with one of everything, values chosen to
// exercise negatives, zero and histogram buckets.
func populate(reg *Registry) {
	reg.Counter("sim.trials").Add(42)
	reg.Counter("sat.conflicts").Add(7)
	reg.Gauge("search.depth").Set(-3)
	reg.Gauge("queue.len").Set(0)
	h := reg.Histogram("span.node.dur_ns")
	h.Observe(0)
	h.Observe(1500)
	h.Observe(3)
}

// TestRegistryStringRoundTrip guards the hand-rolled JSON encoder behind
// Registry.String: the output must parse with encoding/json and carry
// exactly the Snapshot keys (including every histogram sub-field).
func TestRegistryStringRoundTrip(t *testing.T) {
	reg := NewRegistry()
	populate(reg)

	var decoded map[string]any
	if err := json.Unmarshal([]byte(reg.String()), &decoded); err != nil {
		t.Fatalf("String() is not valid JSON: %v\n%s", err, reg.String())
	}
	snap := reg.Snapshot()
	if len(decoded) != len(snap) {
		t.Fatalf("decoded %d keys, snapshot has %d", len(decoded), len(snap))
	}
	for name, want := range snap {
		got, ok := decoded[name]
		if !ok {
			t.Errorf("key %q missing from String()", name)
			continue
		}
		switch w := want.(type) {
		case int64:
			if got != float64(w) {
				t.Errorf("%s = %v, want %d", name, got, w)
			}
		case map[string]any:
			gm, ok := got.(map[string]any)
			if !ok {
				t.Fatalf("%s decoded as %T, want object", name, got)
			}
			if len(gm) != len(w) {
				t.Errorf("%s has %d fields, snapshot has %d", name, len(gm), len(w))
			}
			for f := range w {
				if _, ok := gm[f]; !ok {
					t.Errorf("%s missing field %q", name, f)
				}
			}
			if gm["count"] != float64(3) || gm["max"] != float64(1500) {
				t.Errorf("%s count/max = %v/%v, want 3/1500", name, gm["count"], gm["max"])
			}
		}
	}
}

var publishRuns atomic.Int64

// TestRegistryPublish verifies the expvar integration: the published var
// renders the same JSON as String, and re-publishing is a no-op rather than
// an expvar duplicate-name panic.
func TestRegistryPublish(t *testing.T) {
	reg := NewRegistry()
	populate(reg)
	// expvar names are process-global and never released, so each run of
	// the test (go test -count=N) publishes under a fresh one.
	name := fmt.Sprintf("test.metrics.publish.%d", publishRuns.Add(1))
	reg.Publish(name)
	reg.Publish(name) // second call must not panic

	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar.Get(%q) = nil", name)
	}
	if v.String() != reg.String() {
		t.Errorf("published var = %s\nregistry     = %s", v.String(), reg.String())
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(v.String()), &decoded); err != nil {
		t.Fatalf("published var is not valid JSON: %v", err)
	}
}
