// Package experiments regenerates, one by one, the behavioural results of
// every figure and comparative claim in the paper (the experiment index of
// DESIGN.md, E1–E14). Each experiment returns a Table that cmd/scriptbench
// renders; EXPERIMENTS.md records a reference run against the paper's
// statements.
//
// The paper has no quantitative evaluation — it is a language-construct
// proposal — so the experiments check *semantic shape*: who waits for whom,
// which policies release early, which locking strategy admits what, how the
// translations' supervisors behave, and how the broadcast strategies trade
// off. Every verdict is structural — a count, an order of trace events, a
// value delivered — so it is the same under the race detector and on one
// processor; nothing here reads the wall clock. What a figure costs on a
// given machine is `go test -bench` over the same fixtures (fixtures.go),
// which BenchmarkE01–E14 and cmd/figures drive too.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
)

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment identifier (E01..E14).
	ID string
	// Title names the paper artifact being reproduced.
	Title string
	// Claim quotes or paraphrases what the paper says should happen.
	Claim string
	// Headers and Rows are the tabular result.
	Headers []string
	Rows    [][]string
	// Verdict summarizes whether the claim held in this run.
	Verdict string
	// Err is set when the experiment could not run.
	Err error
}

// Render writes the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "   paper: %s\n", t.Claim)
	if t.Err != nil {
		fmt.Fprintf(&b, "   ERROR: %v\n", t.Err)
		return b.String()
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("   ")
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Verdict != "" {
		fmt.Fprintf(&b, "   verdict: %s\n", t.Verdict)
	}
	return b.String()
}

// Experiment is one runnable experiment.
type Experiment func(ctx context.Context) Table

// Entry pairs an experiment with its index ID, so runners can filter
// without executing.
type Entry struct {
	ID  string
	Run Experiment
}

// Suite returns the full experiment suite in index order.
func Suite() []Entry {
	return []Entry{
		{"E01", E01SuccessivePerformances},
		{"E02", E02RepeatedEnrollment},
		{"E03", E03StarBroadcast},
		{"E04", E04PipelineResidence},
		{"E05", E05LockManager},
		{"E06", E06CSPBroadcast},
		{"E07", E07CSPTranslation},
		{"E08", E08AdaBroadcast},
		{"E09", E09AdaTranslation},
		{"E10", E10MonitorMailbox},
		{"E11", E11BroadcastStrategies},
		{"E12", E12OpenEnded},
		{"E13", E13DistributedEnrollment},
		{"E14", E14Fairness},
	}
}

// All returns the experiments of the suite in order.
func All() []Experiment {
	entries := Suite()
	out := make([]Experiment, len(entries))
	for i, e := range entries {
		out[i] = e.Run
	}
	return out
}

// Run executes every experiment and returns the tables.
func Run(ctx context.Context) []Table {
	var out []Table
	for _, e := range All() {
		out = append(out, e(ctx))
	}
	return out
}

// helpers ------------------------------------------------------------------

func errTable(id, title, claim string, err error) Table {
	return Table{ID: id, Title: title, Claim: claim, Err: err}
}

func itoa(i int) string { return strconv.Itoa(i) }

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
