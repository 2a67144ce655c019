package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunOnlyFilter runs a single fast experiment end to end through the
// command's own entry point.
func TestRunOnlyFilter(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-only", "E02", "-timeout", "60s"}, tmp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	if !strings.Contains(out, "E02") || !strings.Contains(out, "PASS") {
		t.Fatalf("output missing expected content:\n%s", out)
	}
	if strings.Contains(out, "E03") {
		t.Fatal("-only filter leaked other experiments")
	}
}

func TestRunUnknownOnly(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-only", "E99"}, tmp); err == nil {
		t.Fatal("unknown experiment ID must fail")
	}
}

// TestRunJSONMode runs the fastest acceptance measurement (E12: two 400ms
// drives) end to end and checks that the BENCH file's comparison comes from
// the invocation that wrote it: the baseline is the file's own second arm,
// and there is no flag to take it from anywhere else.
func TestRunJSONMode(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-json", "-only", "e12", "-outdir", dir}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "BENCH_E12.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		ID              string  `json:"id"`
		NsPerOp         float64 `json:"ns_per_op"`
		BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
		DeltaPct        float64 `json:"delta_pct"`
		Churn           []struct {
			Resume     bool    `json:"resume"`
			Throughput float64 `json:"throughput_per_sec"`
		} `json:"churn"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if got.ID != "E12" || len(got.Churn) != 2 || !got.Churn[0].Resume || got.Churn[1].Resume {
		t.Fatalf("unexpected result: %s", data)
	}
	on, off := got.Churn[0].Throughput, got.Churn[1].Throughput
	if on <= 0 || off <= 0 {
		t.Fatalf("an arm completed nothing: %s", data)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	if !near(got.NsPerOp, 1e9/on) || !near(got.BaselineNsPerOp, 1e9/off) {
		t.Fatalf("headline %v / baseline %v are not this run's arms (%v/s on, %v/s off)",
			got.NsPerOp, got.BaselineNsPerOp, on, off)
	}
	if want := (got.BaselineNsPerOp - got.NsPerOp) / got.BaselineNsPerOp * 100; !near(got.DeltaPct, want) {
		t.Fatalf("delta_pct = %v, want %v from the same two arms", got.DeltaPct, want)
	}

	// No number may depend on a BENCH file from an earlier session, so the
	// flag that read one is gone.
	if err := run([]string{"-json", "-only", "E12", "-outdir", dir, "-baseline", dir}, os.Stdout); err == nil {
		t.Fatal("-baseline must be an unknown flag")
	}
}

func TestRunJSONUnknownOnly(t *testing.T) {
	if err := run([]string{"-json", "-only", "E99", "-outdir", t.TempDir()}, os.Stdout); err == nil {
		t.Fatal("unknown measurement ID must fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, os.Stdout); err == nil {
		t.Fatal("bad flag must fail")
	}
}
