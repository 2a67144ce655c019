package match

import (
	"testing"
	"testing/quick"

	"github.com/scriptabs/goscript/internal/ids"
)

func roles(rs ...ids.RoleRef) ids.RoleSet { return ids.NewRoleSet(rs...) }

var (
	sender = ids.Role("sender")
	rcpt1  = ids.Member("recipient", 1)
	rcpt2  = ids.Member("recipient", 2)
)

func broadcastRoles() ids.RoleSet { return roles(sender, rcpt1, rcpt2) }

func TestFindUnnamedFullCover(t *testing.T) {
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender},
			{ID: 2, PID: "P", Role: rcpt1},
			{ID: 3, PID: "Q", Role: rcpt2},
		},
	}
	asg, ok := Find(p)
	if !ok {
		t.Fatal("expected a match")
	}
	if len(asg) != 3 {
		t.Fatalf("assignment size = %d, want 3: %v", len(asg), asg)
	}
	if asg[sender].PID != "T" || asg[rcpt1].PID != "P" || asg[rcpt2].PID != "Q" {
		t.Fatalf("wrong binding: %v", asg)
	}
}

func TestFindFailsWhenRoleMissing(t *testing.T) {
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender},
			{ID: 2, PID: "P", Role: rcpt1},
			// recipient[2] missing; all roles critical by default.
		},
	}
	if asg, ok := Find(p); ok {
		t.Fatalf("unexpected match: %v", asg)
	}
}

func TestFindNamedPartnersMustAgree(t *testing.T) {
	// T names P and Q; P names T; Q names T. All agree.
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender, With: map[ids.RoleRef]ids.PIDSet{
				rcpt1: ids.NewPIDSet("P"), rcpt2: ids.NewPIDSet("Q"),
			}},
			{ID: 2, PID: "P", Role: rcpt1, With: map[ids.RoleRef]ids.PIDSet{
				sender: ids.NewPIDSet("T"),
			}},
			{ID: 3, PID: "Q", Role: rcpt2, With: map[ids.RoleRef]ids.PIDSet{
				sender: ids.NewPIDSet("T"),
			}},
		},
	}
	asg, ok := Find(p)
	if !ok || asg[rcpt1].PID != "P" || asg[rcpt2].PID != "Q" {
		t.Fatalf("ok=%v asg=%v", ok, asg)
	}
}

func TestFindNamedPartnersDisagree(t *testing.T) {
	// P insists the sender is X, but only T offers sender.
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender},
			{ID: 2, PID: "P", Role: rcpt1, With: map[ids.RoleRef]ids.PIDSet{
				sender: ids.NewPIDSet("X"),
			}},
			{ID: 3, PID: "Q", Role: rcpt2},
		},
	}
	if asg, ok := Find(p); ok {
		t.Fatalf("unexpected match despite disagreement: %v", asg)
	}
}

func TestFindSkipsConflictingOfferAndUsesAlternative(t *testing.T) {
	// Two contenders for recipient[1]: P demands sender X (impossible),
	// P2 is unconstrained. The matcher must pick P2.
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender},
			{ID: 2, PID: "P", Role: rcpt1, With: map[ids.RoleRef]ids.PIDSet{
				sender: ids.NewPIDSet("X"),
			}},
			{ID: 3, PID: "P2", Role: rcpt1},
			{ID: 4, PID: "Q", Role: rcpt2},
		},
	}
	asg, ok := Find(p)
	if !ok {
		t.Fatal("expected a match using the unconstrained contender")
	}
	if asg[rcpt1].PID != "P2" {
		t.Fatalf("recipient[1] = %v, want P2", asg[rcpt1])
	}
}

func TestFindEitherOfConstraint(t *testing.T) {
	// "role should be fulfilled by either process A or process B".
	p := Problem{
		Roles: broadcastRoles(),
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender, With: map[ids.RoleRef]ids.PIDSet{
				rcpt1: ids.NewPIDSet("A", "B"),
			}},
			{ID: 2, PID: "B", Role: rcpt1},
			{ID: 3, PID: "Q", Role: rcpt2},
		},
	}
	asg, ok := Find(p)
	if !ok || asg[rcpt1].PID != "B" {
		t.Fatalf("ok=%v asg=%v", ok, asg)
	}
}

func TestFindNamedPartnerMustBePresent(t *testing.T) {
	// T names rcpt1=P but nobody offers rcpt1. Critical set is only
	// {sender}, so coverage alone would pass — the constraint must fail it.
	p := Problem{
		Roles:        broadcastRoles(),
		CriticalSets: []ids.RoleSet{roles(sender)},
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender, With: map[ids.RoleRef]ids.PIDSet{
				rcpt1: ids.NewPIDSet("P"),
			}},
		},
	}
	if asg, ok := Find(p); ok {
		t.Fatalf("unexpected match with absent named partner: %v", asg)
	}
}

func TestFindNilSetIsNoConstraint(t *testing.T) {
	// With{q: nil} means "any process, or none, in q" — what Offer's doc,
	// PIDSet.Contains and the wire encoding all say — so it must not
	// require q to be filled.
	p := Problem{
		Roles:        roles(sender, rcpt1),
		CriticalSets: []ids.RoleSet{roles(sender)},
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender, With: map[ids.RoleRef]ids.PIDSet{rcpt1: nil}},
		},
	}
	asg, ok := Find(p)
	if !ok || len(asg) != 1 || asg[sender].PID != "T" {
		t.Fatalf("a nil partner set blocked the match: ok=%v asg=%v", ok, asg)
	}
	// An empty non-nil set still admits nobody.
	p.Offers[0].With[rcpt1] = ids.NewPIDSet()
	if asg, ok := Find(p); ok {
		t.Fatalf("an empty partner set matched: %v", asg)
	}
}

func TestFindCriticalSubsetsReaderOrWriter(t *testing.T) {
	// Database shape: managers m1,m2 plus reader and/or writer.
	m1, m2 := ids.Member("manager", 1), ids.Member("manager", 2)
	reader, writer := ids.Role("reader"), ids.Role("writer")
	all := roles(m1, m2, reader, writer)
	crit := []ids.RoleSet{
		roles(m1, m2, reader),
		roles(m1, m2, writer),
	}
	base := []Offer{
		{ID: 1, PID: "M1", Role: m1},
		{ID: 2, PID: "M2", Role: m2},
	}

	t.Run("reader only", func(t *testing.T) {
		p := Problem{Roles: all, CriticalSets: crit,
			Offers: append(append([]Offer{}, base...), Offer{ID: 3, PID: "R", Role: reader})}
		asg, ok := Find(p)
		if !ok || len(asg) != 3 {
			t.Fatalf("ok=%v asg=%v", ok, asg)
		}
		if _, has := asg[writer]; has {
			t.Fatal("writer should be unfilled")
		}
	})
	t.Run("writer only", func(t *testing.T) {
		p := Problem{Roles: all, CriticalSets: crit,
			Offers: append(append([]Offer{}, base...), Offer{ID: 3, PID: "W", Role: writer})}
		if _, ok := Find(p); !ok {
			t.Fatal("writer-only cover must match")
		}
	})
	t.Run("both admitted maximally", func(t *testing.T) {
		p := Problem{Roles: all, CriticalSets: crit,
			Offers: append(append([]Offer{}, base...),
				Offer{ID: 3, PID: "R", Role: reader},
				Offer{ID: 4, PID: "W", Role: writer})}
		asg, ok := Find(p)
		if !ok || len(asg) != 4 {
			t.Fatalf("both reader and writer should be admitted: ok=%v asg=%v", ok, asg)
		}
	})
	t.Run("managers alone insufficient", func(t *testing.T) {
		p := Problem{Roles: all, CriticalSets: crit, Offers: base}
		if asg, ok := Find(p); ok {
			t.Fatalf("unexpected match: %v", asg)
		}
	})
}

func TestFindOneProcessOneRole(t *testing.T) {
	// The same PID offers two roles (e.g. queued offers from successive
	// calls); a single match must not use both.
	p := Problem{
		Roles:        roles(sender, rcpt1),
		CriticalSets: []ids.RoleSet{roles(sender)},
		Offers: []Offer{
			{ID: 1, PID: "A", Role: sender},
			{ID: 2, PID: "A", Role: rcpt1},
		},
	}
	asg, ok := Find(p)
	if !ok {
		t.Fatal("expected match")
	}
	if len(asg) != 1 {
		t.Fatalf("PID A used twice: %v", asg)
	}
}

func TestFindFIFOPrefersEarlierOffer(t *testing.T) {
	p := Problem{
		Roles:        roles(sender),
		CriticalSets: []ids.RoleSet{roles(sender)},
		Offers: []Offer{
			{ID: 7, PID: "late", Role: sender},
			{ID: 3, PID: "early", Role: sender},
		},
		Fairness: FIFO,
	}
	asg, ok := Find(p)
	if !ok || asg[sender].PID != "early" {
		t.Fatalf("FIFO must pick the earlier offer: %v", asg)
	}
}

func TestFindArbitraryIsSeededAndVaries(t *testing.T) {
	mk := func(seed int64) ids.PID {
		p := Problem{
			Roles:        roles(sender),
			CriticalSets: []ids.RoleSet{roles(sender)},
			Offers: []Offer{
				{ID: 1, PID: "a", Role: sender},
				{ID: 2, PID: "b", Role: sender},
				{ID: 3, PID: "c", Role: sender},
			},
			Fairness: Arbitrary,
			Seed:     seed,
		}
		asg, ok := Find(p)
		if !ok {
			t.Fatal("expected match")
		}
		return asg[sender].PID
	}
	// Determinism per seed.
	for seed := int64(0); seed < 5; seed++ {
		if mk(seed) != mk(seed) {
			t.Fatalf("seed %d not deterministic", seed)
		}
	}
	// Variation across seeds.
	seen := map[ids.PID]bool{}
	for seed := int64(0); seed < 40; seed++ {
		seen[mk(seed)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("arbitrary fairness never varied: %v", seen)
	}
}

func TestFindExtensionChains(t *testing.T) {
	// Critical set is just the sender. rcpt1's offer names rcpt2's player,
	// so rcpt1 can only be admitted after rcpt2 — the fixpoint must add
	// rcpt2 first, then rcpt1.
	p := Problem{
		Roles:        broadcastRoles(),
		CriticalSets: []ids.RoleSet{roles(sender)},
		Offers: []Offer{
			{ID: 1, PID: "T", Role: sender},
			{ID: 2, PID: "P", Role: rcpt1, With: map[ids.RoleRef]ids.PIDSet{
				rcpt2: ids.NewPIDSet("Q"),
			}},
			{ID: 3, PID: "Q", Role: rcpt2},
		},
	}
	asg, ok := Find(p)
	if !ok || len(asg) != 3 {
		t.Fatalf("extension chain not admitted: ok=%v asg=%v", ok, asg)
	}
}

func TestCovered(t *testing.T) {
	p := Problem{
		Roles:        broadcastRoles(),
		CriticalSets: []ids.RoleSet{roles(sender, rcpt1), roles(sender, rcpt2)},
	}
	if !p.Covered(roles(sender, rcpt1)) {
		t.Error("first critical set should cover")
	}
	if !p.Covered(roles(sender, rcpt1, rcpt2)) {
		t.Error("superset should cover")
	}
	if p.Covered(roles(rcpt1, rcpt2)) {
		t.Error("missing sender should not cover")
	}
	// Default critical set = all roles.
	pd := Problem{Roles: broadcastRoles()}
	if pd.Covered(roles(sender, rcpt1)) {
		t.Error("default critical set must require all roles")
	}
	if !pd.Covered(broadcastRoles()) {
		t.Error("full cover must satisfy default critical set")
	}
}

func TestCanJoin(t *testing.T) {
	asg := Assignment{
		sender: {ID: 1, PID: "T", Role: sender, With: map[ids.RoleRef]ids.PIDSet{
			rcpt1: ids.NewPIDSet("P"),
		}},
	}
	if !CanJoin(asg, Offer{ID: 2, PID: "P", Role: rcpt1}) {
		t.Error("named P should be admitted")
	}
	if CanJoin(asg, Offer{ID: 3, PID: "Z", Role: rcpt1}) {
		t.Error("Z violates T's constraint on recipient[1]")
	}
	if CanJoin(asg, Offer{ID: 4, PID: "X", Role: sender}) {
		t.Error("filled role must reject joiners")
	}
	if CanJoin(asg, Offer{ID: 5, PID: "Q", Role: rcpt2, With: map[ids.RoleRef]ids.PIDSet{
		sender: ids.NewPIDSet("OTHER"),
	}}) {
		t.Error("joiner's constraint on filled sender must be enforced")
	}
	if !CanJoin(asg, Offer{ID: 6, PID: "Q", Role: rcpt2, With: map[ids.RoleRef]ids.PIDSet{
		rcpt1: ids.NewPIDSet("P"),
	}}) {
		t.Error("constraint on an unfilled role must not block joining")
	}
}

func TestFindPropertyConsistency(t *testing.T) {
	// Property: whatever assignment Find returns is internally consistent —
	// distinct PIDs, covered critical set, all constraints satisfied.
	prop := func(seedRaw uint8, contention uint8) bool {
		seed := int64(seedRaw)
		n := int(contention%4) + 1
		var offers []Offer
		id := uint64(1)
		for _, r := range []ids.RoleRef{sender, rcpt1, rcpt2} {
			for c := 0; c < n; c++ {
				offers = append(offers, Offer{
					ID:   id,
					PID:  ids.PID(string(rune('A'+c)) + r.String()),
					Role: r,
				})
				id++
			}
		}
		p := Problem{
			Roles:    broadcastRoles(),
			Offers:   offers,
			Fairness: Arbitrary,
			Seed:     seed,
		}
		asg, ok := Find(p)
		if !ok {
			return false // full contention always matches
		}
		pids := map[ids.PID]bool{}
		for r, o := range asg {
			if o.Role != r || pids[o.PID] {
				return false
			}
			pids[o.PID] = true
		}
		return p.Covered(asg.Roles()) && closed(asg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFindAllocs gates the allocation count of the unconstrained common
// case: the 25-offer cast of a 24-recipient star broadcast (80 before the
// search ran on dense indices). What is left is the returned map, the PID
// numbering and the search's three backing slices.
func TestFindAllocs(t *testing.T) {
	p := starProblem(24)
	if got := testing.AllocsPerRun(100, func() { Find(p) }); got > 16 {
		t.Fatalf("Find(star25) allocates %v objects per call, want <= 16", got)
	}
}

func TestOfferString(t *testing.T) {
	o := Offer{ID: 4, PID: "A", Role: rcpt1}
	if got, want := o.String(), "offer#4 A as recipient[1]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
