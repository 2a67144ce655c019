// Command scriptbench runs the full experiment suite — one experiment per
// figure or comparative claim of the paper (DESIGN.md's E01–E14 index) — and
// prints each result table. EXPERIMENTS.md records a reference run.
//
// With -json it instead runs the performance acceptance suite
// (internal/perfbench: E4–E8, E10–E12) and writes one BENCH_<ID>.json per
// measurement into -outdir. Those IDs are the acceptance suite's own, not
// the paper index (its E7 is the remote star broadcast; the paper's E07 is
// the CSP translation). Every baseline_ns_per_op and delta_pct in a file
// compares two arms of the run that wrote it (positive = headline arm
// faster); nothing is read from an earlier session. End-to-end cost is
// benchmark/'s job, not this command's.
//
// Usage:
//
//	scriptbench [-only E05] [-timeout 5m]
//	scriptbench -json [-outdir .] [-only E7]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/scriptabs/goscript/internal/experiments"
	"github.com/scriptabs/goscript/internal/perfbench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("scriptbench", flag.ContinueOnError)
	only := fs.String("only", "", "run only the experiment with this ID (e.g. E05, or E7 with -json)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall time budget")
	jsonMode := fs.Bool("json", false, "run the performance suite and write BENCH_<ID>.json files")
	outdir := fs.String("outdir", ".", "directory for BENCH_<ID>.json files (with -json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *jsonMode {
		return runJSON(out, *only, *outdir)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Fprintln(out, "goscript experiment suite — Francez & Hailpern, \"Script: A Communication Abstraction Mechanism\" (PODC 1983)")
	fmt.Fprintln(out)
	failures := 0
	ran := 0
	for _, entry := range experiments.Suite() {
		if *only != "" && !strings.EqualFold(entry.ID, *only) {
			continue
		}
		tbl := entry.Run(ctx)
		ran++
		fmt.Fprintln(out, tbl.Render())
		if tbl.Err != nil || strings.Contains(tbl.Verdict, "FAIL") {
			failures++
		}
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches -only=%s", *only)
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	fmt.Fprintf(out, "all %d experiments passed\n", ran)
	return nil
}

// runJSON runs the perfbench suite and writes BENCH_<ID>.json files.
func runJSON(out *os.File, only, outdir string) error {
	ran := 0
	for _, spec := range perfbench.Suite() {
		if only != "" && !strings.EqualFold(spec.ID, only) {
			continue
		}
		fmt.Fprintf(out, "%s %s (%d enrollers)... ", spec.ID, spec.Name, spec.Enrollers)
		res := spec.Run()
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(outdir, "BENCH_"+spec.ID+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "%.0f ns/op", res.NsPerOp)
		if res.BaselineNsPerOp > 0 {
			fmt.Fprintf(out, " (baseline %.0f, %+.1f%%)", res.BaselineNsPerOp, res.DeltaPct)
		}
		if res.Speedup > 0 {
			fmt.Fprintf(out, " (%.2fx vs single instance)", res.Speedup)
		}
		fmt.Fprintf(out, " -> %s\n", path)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no measurement matches -only=%s", only)
	}
	return nil
}
