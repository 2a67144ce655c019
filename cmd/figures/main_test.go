package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func figuresOutput(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("figures %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// TestEveryFigure runs all twelve figures and checks the lines that do not
// depend on the interleaving.
func TestEveryFigure(t *testing.T) {
	out := figuresOutput(t)
	want := []string{
		"--- Figure 1: ", "--- Figure 2: ", "--- Figure 3: ", "--- Figure 4: ", "--- Figure 5: ", "--- Figure 6: ",
		"--- Figure 7: ", "--- Figure 8: ", "--- Figures 9-11: ", "--- Figure 12: ",
		"result: u=x (want x), y=v (want v)",
		"communication pattern (5 sends): sender->recipient[1] sender->recipient[2] sender->recipient[3] sender->recipient[4] sender->recipient[5]",
		"writer locks 'item' (3 of 3 managers needed): granted=false (reader holds it)",
		"after the reader releases, writer retries:    granted=true",
		"supervisor p_star_broadcast coordinated 1 performance of 4 roles (start_s/end_s counting)",
		"translation created 5 tasks (m+1): one per role plus the supervisor",
	}
	for i := 1; i <= 5; i++ {
		want = append(want,
			fmt.Sprintf("recipient[%d] received data", i),
			fmt.Sprintf("recipient[%d]?y = x", i),
			fmt.Sprintf("r%d:=data", i),
			fmt.Sprintf("recipient[%d].mbox.get(data) = via-mailboxes", i))
	}
	for i := 1; i <= 3; i++ {
		want = append(want,
			fmt.Sprintf("q[%d] enrolled as recipient[%d] and received via-p_s", i, i),
			fmt.Sprintf("recipient[%d] stop entry returned via-tasks", i))
	}
	for _, line := range want {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q", line)
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}

// TestFigure1Timeline: D's role starts in performance 2, after B and C have
// finished theirs.
func TestFigure1Timeline(t *testing.T) {
	out := figuresOutput(t, "-fig", "1")
	dStart := strings.Index(out, "D begins role p (performance 2)")
	if dStart < 0 {
		t.Fatalf("D does not start in performance 2:\n%s", out)
	}
	for _, finish := range []string{"B finishes its role as q", "C finishes its role as r"} {
		if at := strings.Index(out, finish); at < 0 || at > dStart {
			t.Errorf("%q does not precede D's start:\n%s", finish, out)
		}
	}
	if strings.Contains(out, "Figure 2") {
		t.Error("-fig 1 printed another figure")
	}
}

// TestFigureSelection: 9, 10 and 11 all select the "Figures 9-11" replay,
// and a number the paper has no figure for is an error, not silence.
func TestFigureSelection(t *testing.T) {
	for _, fig := range []string{"9", "10", "11"} {
		out := figuresOutput(t, "-fig", fig)
		if !strings.HasPrefix(out, "--- Figures 9-11: ") || strings.Count(out, "--- Figure") != 1 {
			t.Errorf("-fig %s printed:\n%s", fig, out)
		}
	}
	for _, fig := range []string{"13", "-1"} {
		var out bytes.Buffer
		if err := run([]string{"-fig", fig}, &out); err == nil || out.Len() != 0 {
			t.Errorf("-fig %s: err = %v, output %q; want an error and no output", fig, err, out.String())
		}
	}
	if err := run([]string{"-nope"}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown flag must fail")
	}
}
