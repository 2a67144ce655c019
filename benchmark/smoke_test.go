package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload for a fraction of a second per phase, once
// untraced and once traced, and checks what the driver relies on: the
// printed metric names are exactly BENCHMARK.json's, each with its unit,
// nothing failed, and the recorded spans form well-formed trees whose
// children account for the enrollment they sit in.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns scriptd children; skipped with -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the benchmark has %d", specFile, len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("%s lists workload %q, which the benchmark does not have", specFile, sw.Name)
		}
		for _, traced := range []bool{false, true} {
			name := sw.Name + "/end_to_end"
			want := spec.EndToEnd
			if traced {
				name, want = sw.Name+"/per_layer", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{
					root: root, spec: spec, w: w, seed: 7, seconds: 0.6, traced: traced,
					setups: 1, quick: true, spans: filepath.Join(t.TempDir(), "spans.jsonl"),
				}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out, cfg); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d, wrong %v", last.Correct, last.Attempted, last.Failed, res.broken)
				}
				if len(last.Metrics) != len(want) {
					t.Errorf("printed %d metrics, %s lists %d", len(last.Metrics), specFile, len(want))
				}
				for _, m := range want {
					got, ok := last.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing from the result object", m.Name)
					case got.Unit == "" || got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}
				coverage, err := checkTrees(res.spans)
				if err != nil {
					t.Fatalf("span trees: %v", err)
				}
				if coverage < 0.95 || coverage > 1 {
					t.Errorf("admit + ops + release cover %.1f%% of enroll time, want 95–100%%", coverage*100)
				}
				// The 2×2 must separate the layers: an in-process workload
				// reports nothing measured at the wire or in scriptd, a
				// remote one nothing measured inside the instance's process.
				for name := range last.Metrics {
					offPath := false
					switch {
					case strings.HasPrefix(name, "remote."), strings.HasPrefix(name, "wire.host_"), name == "wire.conns":
						offPath = !w.remote()
					case strings.HasPrefix(name, "rendezvous.op_"), strings.HasPrefix(name, "core.") && name != "core.performances_aborted":
						offPath = w.remote()
					}
					if offPath && !res.absent[name] {
						t.Errorf("%s is reported on %s, whose path does not include that layer", name, w.name)
					}
				}
				if res.absent["rendezvous.fast_share"] {
					t.Errorf("rendezvous.fast_share is absent on %s", w.name)
				}
			})
		}
	}
}

func TestCheckTreesRejectsMalformed(t *testing.T) {
	good := []span{
		{Trace: 1, ID: 1, Name: "enroll", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "admit", Start: 0, End: 40},
		{Trace: 1, ID: 3, Parent: 1, Name: "op.recv", Start: 40, End: 90},
		{Trace: 1, ID: 4, Parent: 1, Name: "release", Start: 90, End: 100},
	}
	if c, err := checkTrees(good); err != nil || c != 1 {
		t.Fatalf("well-formed tree: coverage %v, err %v", c, err)
	}
	for name, mutate := range map[string]func([]span){
		"child outside parent": func(s []span) { s[3].End = 120 },
		"child in other trace": func(s []span) { s[2].Trace = 2 },
		"overlapping siblings": func(s []span) { s[2].Start = 30 },
		"no admit":             func(s []span) { s[1].Name = "op.send" },
	} {
		bad := append([]span(nil), good...)
		mutate(bad)
		if _, err := checkTrees(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(xs, n=4), which is what the driver computes.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	five := []float64{4, 5, 1, 3, 2} // quartiles 1.5, 3, 4.5
	if got := quartileSpread(five); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}

// TestHistQuantile holds the histogram to its 1% buckets.
func TestHistQuantile(t *testing.T) {
	var h hist
	for us := 1; us <= 1000; us++ {
		h.add(float64(us) * 1e3)
	}
	for p, want := range map[float64]float64{0.5: 0.5, 0.9: 0.9, 0.99: 0.99} {
		if got := h.quantile(p); math.Abs(got-want)/want > 0.015 {
			t.Errorf("quantile(%v) = %v ms, want %v within 1.5%%", p, got, want)
		}
	}
	if got := new(hist).quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %v, want 0", got)
	}
}
