package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/figures"
)

// referenceSeed is the only seed the checked-in reference describes (the
// paper protocol's). Off it the reference comparisons are skipped.
const referenceSeed = 1

// referencePath is where --write-reference stores the file, relative to
// the repository root.
const referencePath = "benchmark/reference.json"

//go:embed reference.json
var referenceJSON []byte

// reference is benchmark/reference.json: the seed-1 outputs the
// correctness checks compare against.
type reference struct {
	Seed  uint64 `json:"seed"`
	SeqMD struct {
		Step10TotalEnergy float64 `json:"step10_total_energy"`
	} `json:"seq_md"`
	DomSweep struct {
		Procs          int                `json:"procs"`
		VirtualSeconds map[string]float64 `json:"virtual_seconds"` // by network name
	} `json:"dom_sweep"`
	FigureAll struct {
		SHA256   string           `json:"sha256"`
		RunStats figures.RunStats `json:"run_stats"`
	} `json:"figure_all"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("parse embedded reference.json: %w", err)
	}
	return &ref, nil
}

func writeReference(ref *reference) error {
	buf, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return fmt.Errorf("encode reference: %w", err)
	}
	if err := os.WriteFile(referencePath, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write reference (run from the repository root): %w", err)
	}
	return nil
}

// relClose reports |a−b| ≤ tol·max(|a|,|b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
