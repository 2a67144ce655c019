package trace

import (
	"strings"
	"sync"
	"testing"

	"github.com/scriptabs/goscript/internal/ids"
)

func TestLogAssignsIncreasingSeq(t *testing.T) {
	var l Log
	for i := 0; i < 5; i++ {
		l.Record(Event{Kind: KindEnroll, Script: "s"})
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Errorf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
	}
}

func TestLogConcurrentRecord(t *testing.T) {
	var l Log
	const goroutines, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(Event{Kind: KindSend, Script: "s"})
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != goroutines*per {
		t.Fatalf("Len = %d, want %d", got, goroutines*per)
	}
	// Sequence numbers must be a permutation of 1..N in recorded order.
	for i, e := range l.Events() {
		if e.Seq != i+1 {
			t.Fatalf("event %d has Seq %d; log order must equal seq order", i, e.Seq)
		}
	}
}

func TestLogEventsReturnsCopy(t *testing.T) {
	var l Log
	l.Record(Event{Kind: KindStart, Script: "s"})
	evs := l.Events()
	evs[0].Script = "mutated"
	if l.Events()[0].Script != "s" {
		t.Error("Events must return a copy, not alias internal storage")
	}
}

func TestLogReset(t *testing.T) {
	var l Log
	l.Record(Event{Kind: KindStart})
	l.Reset()
	if l.Len() != 0 {
		t.Fatal("Reset did not clear events")
	}
	l.Record(Event{Kind: KindStart})
	if l.Events()[0].Seq != 1 {
		t.Error("Reset did not restart sequence numbering")
	}
}

func TestBeforeAndFirst(t *testing.T) {
	var l Log
	a := ids.PID("A")
	d := ids.PID("D")
	l.Record(Event{Kind: KindFinish, Role: ids.Role("p"), PID: a})
	l.Record(Event{Kind: KindStart, Role: ids.Role("p"), PID: d})

	if !l.Before(ByKind(KindFinish, ids.Role("p"), a), ByKind(KindStart, ids.Role("p"), d)) {
		t.Error("A's finish should precede D's start")
	}
	if l.Before(ByKind(KindStart, ids.Role("p"), d), ByKind(KindFinish, ids.Role("p"), a)) {
		t.Error("reverse order must be false")
	}
	if l.Before(ByKind(KindRelease, ids.RoleRef{}, ""), ByKind(KindStart, ids.RoleRef{}, "")) {
		t.Error("Before with missing event must be false")
	}
	if _, ok := l.First(func(e Event) bool { return e.Kind == KindSend }); ok {
		t.Error("First must report not-found for absent kind")
	}
}

func TestByKindMatchesWildcards(t *testing.T) {
	e := Event{Kind: KindStart, Role: ids.Member("r", 2), PID: "B"}
	if !ByKind(KindStart, ids.RoleRef{}, "")(e) {
		t.Error("wildcard role+pid should match")
	}
	if !ByKind(KindStart, ids.Member("r", 2), "B")(e) {
		t.Error("exact match should match")
	}
	if ByKind(KindStart, ids.Member("r", 1), "")(e) {
		t.Error("wrong index must not match")
	}
	if ByKind(KindFinish, ids.RoleRef{}, "")(e) {
		t.Error("wrong kind must not match")
	}
}

func TestFilter(t *testing.T) {
	var l Log
	l.Record(Event{Kind: KindSend})
	l.Record(Event{Kind: KindRecv})
	l.Record(Event{Kind: KindSend})
	sends := l.Filter(func(e Event) bool { return e.Kind == KindSend })
	if len(sends) != 2 {
		t.Fatalf("got %d sends, want 2", len(sends))
	}
	if sends[0].Seq >= sends[1].Seq {
		t.Error("Filter must preserve order")
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Seq: 12, Kind: KindSend, Script: "broadcast", Performance: 1,
		Role: ids.Role("sender"), Peer: ids.Member("recipient", 2),
		Detail: "x=42", PID: "A",
	}
	s := e.String()
	for _, want := range []string{"#12", "perf=1", "send", "broadcast", "sender", "recipient[2]", "x=42", "by A"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q, missing %q", s, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindEnroll.String() != "enroll" || KindPerfEnd.String() != "perf-end" {
		t.Error("kind names wrong")
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestTimelineNarrative(t *testing.T) {
	var l Log
	l.Record(Event{Kind: KindEnroll, Script: "s", Role: ids.Role("p"), PID: "A"})
	l.Record(Event{Kind: KindPerfStart, Script: "s", Performance: 1})
	l.Record(Event{Kind: KindStart, Script: "s", Role: ids.Role("p"), PID: "A", Performance: 1})
	l.Record(Event{Kind: KindSend, Script: "s", Role: ids.Role("p"), Peer: ids.Role("q"), Performance: 1})
	l.Record(Event{Kind: KindFinish, Script: "s", Role: ids.Role("p"), PID: "A", Performance: 1})
	l.Record(Event{Kind: KindAbsent, Script: "s", Role: ids.Role("q"), Performance: 1})
	l.Record(Event{Kind: KindRelease, Script: "s", PID: "A", Performance: 1})
	l.Record(Event{Kind: KindPerfEnd, Script: "s", Performance: 1})
	tl := l.Timeline()
	for _, want := range []string{
		"A offers to enroll as p",
		"performance 1 of s begins",
		"A begins role p (performance 1)",
		"p sends to q",
		"A finishes its role as p",
		"role q is marked absent for performance 1",
		"A is released from the script",
		"performance 1 of s ends",
	} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
}

func TestNopTracer(t *testing.T) {
	var n Nop
	n.Record(Event{Kind: KindSend}) // must not panic
}

func TestTailKeepsTheLastEvents(t *testing.T) {
	const bound = 64
	tail := NewTail(bound)
	for i := 1; i <= bound/2; i++ {
		tail.Record(Event{Kind: KindSend, Performance: i})
	}
	if got := tail.Events(); len(got) != bound/2 || got[0].Performance != 1 {
		t.Fatalf("before the bound: %d events, first %v", len(got), got[0])
	}
	for i := bound/2 + 1; i <= 2*bound+3; i++ {
		tail.Record(Event{Kind: KindSend, Performance: i})
	}
	got := tail.Events()
	if len(got) != bound {
		t.Fatalf("after %d events the tail holds %d, want its bound %d", 2*bound+3, len(got), bound)
	}
	for i, e := range got {
		if want := bound + 4 + i; e.Performance != want || e.Seq != want {
			t.Fatalf("event %d is performance %d seq %d, want the %dth recorded", i, e.Performance, e.Seq, want)
		}
	}
	one := NewTail(0)
	one.Record(Event{Performance: 1})
	one.Record(Event{Performance: 2})
	if got := one.Events(); len(got) != 1 || got[0].Performance != 2 {
		t.Fatalf("a tail of less than one event keeps the last one; got %v", got)
	}
}
