package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

// TestOpenFamilyDefaultCriticalSetIsClosedRoles: a script with an open
// family and no declared critical set starts as soon as its closed roles are
// offered. Offered open members are never critical ("open families never
// participate in the default critical set"): when one process has offers
// pending on two members, the one-process-one-role rule leaves the second
// unfilled, which must not keep the hub waiting — the second offer is served
// by the next performance.
func TestOpenFamilyDefaultCriticalSetIsClosedRoles(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nop := func(Ctx) error { return nil }
	def, err := NewScript("og").Role("hub", nop).OpenFamily("w", nop).Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()

	perfOf := make([]int, 3) // perfOf[i]: the performance that served A's offer on w[i]
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Member("w", i)})
			if err != nil {
				t.Errorf("A as w[%d]: %v", i, err)
			}
			perfOf[i] = res.Performance
		}(i)
	}
	defer func() { cancel(); wg.Wait() }() // a failure below must not outlive the test
	waitFor(t, func() bool { return in.PendingEnrollments() == 2 })

	for perf := 1; perf <= 2; perf++ {
		res, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
		if err != nil {
			t.Fatalf("hub, performance %d: %v (an offered open member made critical?)", perf, err)
		}
		if res.Performance != perf {
			t.Fatalf("hub played performance %d, want %d", res.Performance, perf)
		}
	}
	wg.Wait()
	if perfOf[1] != 1 || perfOf[2] != 2 {
		t.Fatalf("A's offers were served by performances %v, want w[1] in 1 and w[2] in 2", perfOf[1:])
	}
}

// TestNilPartnerSetIsNoConstraint: With{q: nil} is partners-unnamed
// enrollment as far as q goes, so the cast forms without q being filled.
// (internal/remote's TestNilPartnerSetParity checks that the same enrollment
// behaves the same through the wire, which cannot carry a nil set.)
func TestNilPartnerSetIsNoConstraint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	nop := func(Ctx) error { return nil }
	def, err := NewScript("ab").Role("a", nop).Role("b", nop).CriticalSet(ids.Role("a")).Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	_, err = in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a"),
		With: map[ids.RoleRef]ids.PIDSet{ids.Role("b"): nil}})
	if err != nil {
		t.Fatalf("a nil partner set blocked the cast: %v", err)
	}
}

// TestEmptyPerformanceAllocs gates what forming and ending a performance
// allocates when the bodies do nothing: the three-role script of Figure 1,
// two roles resident, one performance per foreground enrollment
// (BenchmarkE01's loop, which measured 28 objects before the formation
// tables, 12 before the cast table, 9 before wake-up channels were pooled).
// What is left is an enrollment record per role — never recycled, because the
// host's bridge, Result.Values and late co-performers may read one after its
// Enroll returned — and the performance with its cast table and its done
// channel, which is closed to release held roles and so cannot serve twice.
func TestEmptyPerformanceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	nop := func(Ctx) error { return nil }
	def := NewScript("fig1").Role("p", nop).Role("q", nop).Role("r", nop).
		Initiation(ImmediateInitiation).Termination(ImmediateTermination).MustBuild()
	in := NewInstance(def)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, e := range []Enrollment{{PID: "Q", Role: ids.Role("q")}, {PID: "R", Role: ids.Role("r")}} {
		wg.Add(1)
		go func(e Enrollment) {
			defer wg.Done()
			for {
				if _, err := in.Enroll(ctx, e); err != nil {
					return
				}
			}
		}(e)
	}
	p := Enrollment{PID: "P", Role: ids.Role("p")}
	got := testing.AllocsPerRun(2000, func() {
		if _, err := in.Enroll(ctx, p); err != nil {
			t.Error(err)
		}
	})
	cancel()
	in.Close()
	wg.Wait()
	if got > 7 { // 6 measured, plus 10%
		t.Fatalf("an empty three-role performance allocates %v objects, want <= 7", got)
	}
}
