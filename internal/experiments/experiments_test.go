package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/dist"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

func expCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestAllExperimentsPass runs the whole suite and requires every table to
// carry a passing verdict — this is the repository's end-to-end check that
// each paper claim reproduces. No verdict is a wall-clock comparison, so
// none is skipped or softened under the race detector.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is not short")
	}
	ctx := expCtx(t)
	for _, tbl := range Run(ctx) {
		t.Run(tbl.ID, func(t *testing.T) {
			if tbl.Err != nil {
				t.Fatalf("experiment error: %v", tbl.Err)
			}
			if !strings.HasPrefix(tbl.Verdict, "PASS") || strings.Contains(tbl.Verdict, "skipped") {
				t.Fatalf("verdict: %s\n%s", tbl.Verdict, tbl.Render())
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
		})
	}
}

// failed requires the table to have run and to carry a FAIL verdict.
func failed(t *testing.T, tbl Table) {
	t.Helper()
	if tbl.Err != nil {
		t.Fatalf("experiment error: %v", tbl.Err)
	}
	if !strings.HasPrefix(tbl.Verdict, "FAIL") {
		t.Fatalf("a mutated fixture passed:\n%s", tbl.Render())
	}
}

// TestE04FailsWithoutImmediatePolicies: a star (delayed/delayed) offered as
// the "pipeline" arm keeps its processes exactly as long as the star does.
func TestE04FailsWithoutImmediatePolicies(t *testing.T) {
	failed(t, e04(expCtx(t), patterns.StarBroadcast, patterns.StarBroadcast))
}

// TestE10FailsWhenBothArmsShareAMonitor: the "per-mailbox" arm packaged as
// one black box is not what the claim is about, however fast it runs.
func TestE10FailsWhenBothArmsShareAMonitor(t *testing.T) {
	shared := []monx.Option{monx.WithSharedMonitor()}
	failed(t, e10(expCtx(t), shared, shared))
}

// hotspot is a ring whose busiest node reports a coordinator's load: 2n
// messages a round, one more than the ring sends.
type hotspot struct{ dist.Synchronizer }

func (h hotspot) Stats() dist.Stats {
	st := h.Synchronizer.Stats()
	st.MaxNodeLoad = st.Messages + st.Rounds
	return st
}

// TestE13FailsOnAHotspot: a "ring" with a node that carries every message is
// no better balanced than the coordinator, and E13 must say so (its verdict
// used to be a constant).
func TestE13FailsOnAHotspot(t *testing.T) {
	failed(t, e13(expCtx(t), func(kind string, n int) dist.Synchronizer {
		if s := NewSynchronizer(kind, n); kind != "ring" {
			return s
		} else {
			return hotspot{s}
		}
	}))
}

// TestE13FailsOnExtraMessages: a protocol that spends more messages a round
// than EXPERIMENTS.md says fails too.
func TestE13FailsOnExtraMessages(t *testing.T) {
	failed(t, e13(expCtx(t), func(kind string, n int) dist.Synchronizer {
		if kind == "tree" {
			kind = "central" // 2n a round where 2(n−1) is claimed
		}
		return NewSynchronizer(kind, n)
	}))
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID: "E00", Title: "demo", Claim: "c",
		Headers: []string{"a", "b"},
		Rows:    [][]string{{"1", "22"}, {"333", "4"}},
		Verdict: "PASS",
	}
	s := tbl.Render()
	for _, want := range []string{"E00", "demo", "a", "333", "PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	e := errTable("E99", "t", "c", context.Canceled)
	if !strings.Contains(e.Render(), "ERROR") {
		t.Error("error table must render the error")
	}
}

func TestHelperFormatting(t *testing.T) {
	if pass(true) != "PASS" || pass(false) != "FAIL" {
		t.Error("pass() wrong")
	}
	if itoa(42) != "42" {
		t.Error("itoa wrong")
	}
}

func TestAllListsFourteen(t *testing.T) {
	if got := len(All()); got != 14 {
		t.Fatalf("experiment count = %d, want 14", got)
	}
}
