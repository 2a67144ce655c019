package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
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
	waitFor(t, func() bool { return in.PendingOffers() == 2 })

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
// tables, 12 before the cast table, 9 before wake-up channels were pooled, 6
// before an Enroll recycled its record). What is left is the performance with
// its cast table, the header of the fabric's endpoint table, and an
// enrollment record for each role that finished while the performance still
// ran: under immediate termination such a role's Enroll returns while its
// performance's cast still names its record, so the record is left there and
// the next Enroll makes another; the role that ends the performance recycles
// its own.
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
	if got > 7 { // 5 measured; the bound is 6, measured before, plus 10%
		t.Fatalf("an empty three-role performance allocates %v objects, want <= 7", got)
	}
}

// TestCriticalCountersFollowTheTable: the instance holds one description of
// its definition's critical sets, the matcher's compiled table, and keeps its
// counters by asking it. After every add, withdrawal and assignment of a
// pending offer the table must say what the definition's own role sets say,
// and critMissing must be what a count from those sets gives — for the
// default set, for declared alternatives that share roles, and for a declared
// set that names a member of an open family, which has no slot.
func TestCriticalCountersFollowTheTable(t *testing.T) {
	nop := func(Ctx) error { return nil }
	defs := map[string]Definition{
		"default": NewScript("star").Role("sender", nop).Family("recipient", 5, nop).MustBuild(),
		"alternatives": NewScript("lock").Family("manager", 3, nop).Role("reader", nop).Role("writer", nop).
			CriticalSet(ids.Member("manager", 1), ids.Member("manager", 2), ids.Member("manager", 3), ids.Role("reader")).
			CriticalSet(ids.Member("manager", 1), ids.Member("manager", 2), ids.Member("manager", 3), ids.Role("writer")).
			MustBuild(),
		"open member named": NewScript("og").Role("hub", nop).OpenFamily("w", nop).
			CriticalSet(ids.Role("hub"), ids.Member("w", 2)).CriticalSet(ids.Member("w", 1), ids.Member("w", 2)).
			MustBuild(),
		"open family, default": NewScript("od").Role("hub", nop).Role("aux", nop).OpenFamily("w", nop).MustBuild(),
	}
	for name, def := range defs {
		t.Run(name, func(t *testing.T) {
			in := NewInstance(def)
			defer in.Close()
			sets := def.criticalSets
			if len(sets) == 0 {
				sets = []ids.RoleSet{def.closedRoles()}
			}
			offered := append(def.Roles(), ids.Member("w", 1), ids.Member("w", 2), ids.Member("w", 3))
			if !def.HasOpenFamilies() {
				offered = def.Roles()
			}
			check := func(step string) {
				t.Helper()
				if got := in.table.Sizes(); len(got) != len(sets) {
					t.Fatalf("%s: the table has %d critical sets, the definition %d", step, len(got), len(sets))
				}
				for i, cs := range sets {
					missing := 0
					for r := range cs {
						if !slices.ContainsFunc(in.pending, func(st *enrollState) bool { return st.offer.Role == r }) {
							missing++
						}
					}
					for _, r := range offered {
						if in.table.Names(i, in.slotOf(r), r) != cs.Contains(r) {
							t.Fatalf("%s: table.Names(%d, %s) = %v, the definition's set %v says otherwise", step, i, r, !cs.Contains(r), cs)
						}
					}
					if int(in.table.Sizes()[i]) != len(cs) || int(in.critMissing[i]) != missing {
						t.Fatalf("%s: set %d %v: size %d, critMissing %d; want %d and %d",
							step, i, cs, in.table.Sizes()[i], in.critMissing[i], len(cs), missing)
					}
				}
			}
			in.mu.Lock()
			defer in.mu.Unlock()
			check("fresh")
			rng := rand.New(rand.NewSource(27))
			for step := 0; step < 400; step++ {
				switch n := len(in.pending); {
				case n == 0 || rng.Intn(3) > 0 && n < 12:
					r := offered[rng.Intn(len(offered))]
					in.nextOffer++
					in.addPendingLocked(&enrollState{
						offer: match.Offer{ID: in.nextOffer, PID: ids.PID(fmt.Sprint("P", in.nextOffer)), Role: r},
						slot:  int32(in.slotOf(r)), ctx: context.Background(), phase: phasePending, h: make(wakeCh, 1),
					})
				case rng.Intn(2) == 0:
					in.removePendingLocked(in.pending[rng.Intn(n)])
				default: // what a cast does: some offers assigned, dropped in one pass
					for _, st := range in.pending {
						if rng.Intn(2) == 0 {
							st.phase = phaseAssigned
						}
					}
					in.dropAssignedLocked()
				}
				check(fmt.Sprintf("step %d (%d pending)", step, len(in.pending)))
			}
		})
	}
}
