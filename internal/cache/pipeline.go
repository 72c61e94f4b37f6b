package cache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"dedc/internal/bench"
	"dedc/internal/circuit"
	"dedc/internal/telemetry"
	"dedc/internal/tpg"
)

// Pipeline is the typed front of the store for the two artifacts the service
// recomputes most: parsed .bench netlists (keyed by the text's content hash)
// and ATPG vector sets (keyed by the circuit's structural fingerprint plus
// the generation parameters). Everything returned is a private copy — the
// masters inside the store are never handed out, so concurrent jobs sharing
// a circuit cannot race on the Circuit's lazily derived data or mutate each
// other's vector rows.
type Pipeline struct {
	store *Store
}

// NewPipeline returns a pipeline over a store of the given byte budget;
// maxBytes <= 0 disables caching (every call recomputes). A nil *Pipeline is
// likewise a valid pass-through.
func NewPipeline(maxBytes int64) *Pipeline {
	return &Pipeline{store: New(maxBytes)}
}

// Instrument wires the underlying store's counters to reg (see
// Store.Instrument).
func (p *Pipeline) Instrument(reg *telemetry.Registry) {
	if p != nil {
		p.store.Instrument(reg)
	}
}

// Snapshot reports the underlying store's stats; zero on a nil pipeline.
func (p *Pipeline) Snapshot() Stats {
	if p == nil {
		return Stats{}
	}
	return p.store.Snapshot()
}

// Enabled reports whether the pipeline actually caches.
func (p *Pipeline) Enabled() bool { return p != nil && p.store.Enabled() }

// ParseBench parses .bench text through the cache: the first caller pays
// bench.Read, later callers with byte-identical text get a clone of the
// parsed master. Parse errors are returned without being cached.
func (p *Pipeline) ParseBench(text string) (*circuit.Circuit, error) {
	if !p.Enabled() {
		return bench.Read(strings.NewReader(text))
	}
	sum := sha256.Sum256([]byte(text))
	key := "bench:" + hex.EncodeToString(sum[:])
	if v, ok := p.store.Get(key); ok {
		return v.(*circuit.Circuit).Clone(), nil
	}
	c, err := bench.Read(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	p.store.Put(key, c, circuitBytes(c))
	return c.Clone(), nil
}

// Vectors builds (or replays) the ATPG vector set for c under opt. The cache
// key is the circuit's structural fingerprint plus every option that shapes
// the result. Cancelled (partial) results are returned but never cached, and circuits
// without a fingerprint (combinational cycles) bypass the cache entirely.
func (p *Pipeline) Vectors(ctx context.Context, c *circuit.Circuit, opt tpg.Options) *tpg.Result {
	if !p.Enabled() {
		return tpg.BuildVectorsContext(ctx, c, opt)
	}
	fp := Fingerprint(c)
	if fp == "" {
		return tpg.BuildVectorsContext(ctx, c, opt)
	}
	key := fmt.Sprintf("vec:%s:r%d:s%d:d%t:b%d", fp, opt.Random, opt.Seed, opt.Deterministic, opt.BacktrackLimit)
	if v, ok := p.store.Get(key); ok {
		return copyResult(v.(*tpg.Result))
	}
	res := tpg.BuildVectorsContext(ctx, c, opt)
	if res.Cancelled {
		return res
	}
	p.store.Put(key, res, resultBytes(res))
	return copyResult(res)
}

// copyResult deep-copies a vector-set result so the cached master's rows are
// never aliased by a caller.
func copyResult(r *tpg.Result) *tpg.Result {
	out := *r
	out.PI = make([][]uint64, len(r.PI))
	for i, row := range r.PI {
		out.PI[i] = append([]uint64(nil), row...)
	}
	return &out
}

// circuitBytes estimates a parsed circuit's resident size for the byte
// budget: slice headers and fanin/name payloads dominate.
func circuitBytes(c *circuit.Circuit) int64 {
	n := int64(64) // struct + PI/PO slice headers
	n += int64(len(c.PIs)+len(c.POs)) * 4
	for i := range c.Gates {
		g := &c.Gates[i]
		n += 48 + int64(len(g.Fanin))*4 + int64(len(g.Name))
	}
	return n
}

// resultBytes estimates a vector set's resident size: the packed PI matrix
// dominates everything else.
func resultBytes(r *tpg.Result) int64 {
	n := int64(96)
	for _, row := range r.PI {
		n += 24 + int64(len(row))*8
	}
	return n
}
