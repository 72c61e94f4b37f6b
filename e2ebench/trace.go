package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
)

// span is one layer call of the traced run, timed from the benchmark's side
// of the call. Start and End are seconds since the run began; Parent is
// "op" for the steps of an op, "check" for the correctness check and
// "probe" for the root-node probes that run after it; an op span has none.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Op     int     `json:"op"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// writeSpans writes the spans kept in memory as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
