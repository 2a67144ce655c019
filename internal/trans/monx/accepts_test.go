package monx

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// TestSelectTakesFirstAcceptingBranch pins how a receive matches what the
// role's mailbox holds: the messages a receive passes over stay in arrival
// order, a Select takes the first of them that some enabled receive branch
// accepts, and reports the first branch that accepts it.
func TestSelectTakesFirstAcceptingBranch(t *testing.T) {
	a, b, r := ids.Role("a"), ids.Role("b"), ids.Role("r")
	// The order the messages arrive in, whoever sends them.
	seq := []struct{ from, tag, val string }{
		{"a", "x", "a1"}, {"b", "y", "b1"}, {"a", "y", "a2"}, {"b", "", "b2"}, {"a", "x", "a3"},
	}
	turn := make([]chan struct{}, len(seq)+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	close(turn[0])
	sender := func(rc core.Ctx) error {
		for i, m := range seq {
			if m.from == rc.Role().Name {
				<-turn[i]
				if err := rc.SendTag(r, m.tag, m.val); err != nil {
					return err
				}
				close(turn[i+1])
			}
		}
		return nil
	}
	def := core.NewScript("accepts").
		Role("r", func(rc core.Ctx) error {
			var got []string
			note := func(vs ...any) { got = append(got, strings.TrimSpace(fmt.Sprintln(vs...))) }
			v, err := rc.RecvTag(b, "") // sets a1, b1 and a2 aside
			note(v, err)
			sel, err := rc.Select(
				core.RecvTagFrom(a, "x").When(false), // would take a1
				core.RecvTagFrom(a, "z"),             // no message has the tag
				core.RecvFromAnyone("y"),             // takes b1
				core.RecvTagFrom(b, "y"),             // would, but comes later
			)
			note(sel.Index, sel.Peer, sel.Tag, sel.Val, err)
			from, tag, v, err := rc.RecvAny()
			note(from, tag, v, err)
			v, err = rc.RecvTag(a, "x") // passes a2 over
			note(v, err)
			from, tag, v, err = rc.RecvAny()
			note(from, tag, v, err)
			rc.SetResult(0, got)
			return nil
		}).
		Role("a", sender).
		Role("b", sender).
		MustBuild()
	h, err := New(def, WithCapacity(len(seq)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ids.RoleRef{a, b} {
		go func() {
			if _, err := h.Enroll(s, nil); err != nil {
				t.Errorf("%s: %v", s, err)
			}
		}()
	}
	outs, err := h.Enroll(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b2 <nil>", "2 b y b1 <nil>", "a x a1 <nil>", "a3 <nil>", "a y a2 <nil>"}
	if got := outs[0].([]string); !slices.Equal(got, want) {
		t.Fatalf("receives took\n %q\nwant\n %q", got, want)
	}
}
