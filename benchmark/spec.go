package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric entry of BENCHMARK.json. Bound is only present
// on end-to-end metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads. The file is
// the single list of metric names, units and bounds: the program prints
// exactly the names it lists and refuses to print a different set.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

const specFile = "BENCHMARK.json"

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, specFile)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or above it", specFile)
		}
		dir = parent
	}
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(filepath.Join(root, specFile))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", specFile, err)
	}
	return s, nil
}

// checkNames reports the first difference between the metric names the
// program computed and the ones the spec lists.
func checkNames(kind string, want []metricSpec, got map[string]float64) error {
	for _, m := range want {
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("%s metric %q is in %s but the benchmark did not compute it", kind, m.Name, specFile)
		}
	}
	if len(got) != len(want) {
		listed := make(map[string]bool, len(want))
		for _, m := range want {
			listed[m.Name] = true
		}
		for name := range got {
			if !listed[name] {
				return fmt.Errorf("%s metric %q was computed but is not in %s", kind, name, specFile)
			}
		}
	}
	return nil
}
