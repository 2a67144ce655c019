package match

import (
	"math/rand"
	"testing"

	"github.com/scriptabs/goscript/internal/ids"
)

// oracleFind is a brute-force reference for Find's *satisfiability*: it
// enumerates every assignment of offers to roles (including leaving roles
// unfilled) and reports whether any consistent, critical-set-covering
// assignment exists. Only practical for tiny problems.
func oracleFind(p Problem) bool {
	roles := p.Roles.Sorted()
	offersByRole := make(map[ids.RoleRef][]Offer)
	for _, o := range p.Offers {
		offersByRole[o.Role] = append(offersByRole[o.Role], o)
	}
	asg := make(Assignment)
	used := make(map[ids.PID]bool)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(roles) {
			return p.Covered(asg.Roles()) && oracleConsistent(asg)
		}
		r := roles[i]
		for _, o := range offersByRole[r] {
			if used[o.PID] {
				continue
			}
			asg[r] = o
			used[o.PID] = true
			if rec(i + 1) {
				return true
			}
			delete(asg, r)
			delete(used, o.PID)
		}
		return rec(i + 1) // leave unfilled
	}
	return rec(0)
}

// oracleConsistent re-states the consistency rules independently of the
// production code paths.
func oracleConsistent(asg Assignment) bool {
	for _, o := range asg {
		for q, s := range o.With {
			if s == nil {
				continue // a nil set is no constraint
			}
			chosen, ok := asg[q]
			if !ok || !s.Contains(chosen.PID) {
				return false
			}
		}
	}
	return true
}

// TestFindAgreesWithOracle fuzzes small random problems and checks that
// Find succeeds exactly when the brute-force oracle says a match exists,
// and that any assignment Find returns is consistent and covering.
func TestFindAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	roles := []ids.RoleRef{ids.Role("a"), ids.Role("b"), ids.Role("c")}
	pidPool := []ids.PID{"P", "Q", "R", "S"}

	for trial := 0; trial < 2000; trial++ {
		p := Problem{Roles: ids.NewRoleSet(roles...)}
		// Random critical sets: 0..2 subsets.
		for cs := 0; cs < rng.Intn(3); cs++ {
			var set []ids.RoleRef
			for _, r := range roles {
				if rng.Intn(2) == 0 {
					set = append(set, r)
				}
			}
			if len(set) > 0 {
				p.CriticalSets = append(p.CriticalSets, ids.NewRoleSet(set...))
			}
		}
		// Random offers: 0..5, random roles, PIDs, and constraints.
		nOffers := rng.Intn(6)
		for i := 0; i < nOffers; i++ {
			o := Offer{
				ID:   uint64(i + 1),
				PID:  pidPool[rng.Intn(len(pidPool))],
				Role: roles[rng.Intn(len(roles))],
			}
			for _, q := range roles {
				if q == o.Role || rng.Intn(4) != 0 {
					continue
				}
				// Constraint on q: one or two acceptable PIDs.
				set := ids.NewPIDSet(pidPool[rng.Intn(len(pidPool))])
				if rng.Intn(2) == 0 {
					set[pidPool[rng.Intn(len(pidPool))]] = struct{}{}
				}
				if o.With == nil {
					o.With = make(map[ids.RoleRef]ids.PIDSet)
				}
				o.With[q] = set
			}
			p.Offers = append(p.Offers, o)
		}

		want := oracleFind(p)
		asg, got := findOnBoth(t, p)
		if got != want {
			t.Fatalf("trial %d: Find=%v oracle=%v\nproblem: %+v", trial, got, want, p)
		}
		if got {
			if !p.Covered(asg.Roles()) {
				t.Fatalf("trial %d: assignment does not cover: %v", trial, asg)
			}
			if !oracleConsistent(asg) {
				t.Fatalf("trial %d: assignment inconsistent: %v", trial, asg)
			}
			pids := map[ids.PID]bool{}
			for r, o := range asg {
				if o.Role != r || pids[o.PID] {
					t.Fatalf("trial %d: malformed assignment: %v", trial, asg)
				}
				pids[o.PID] = true
			}
		}
	}
}

// TestFindMaximalityUnderExtension: whatever Find returns, no single
// pending offer can be added while keeping consistency (maximality as
// documented; joint multi-offer extensions are out of scope).
func TestFindMaximalityUnderExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	roles := []ids.RoleRef{ids.Role("a"), ids.Role("b"), ids.Role("c")}
	pidPool := []ids.PID{"P", "Q", "R", "S"}

	for trial := 0; trial < 1000; trial++ {
		p := Problem{Roles: ids.NewRoleSet(roles...)}
		p.CriticalSets = []ids.RoleSet{ids.NewRoleSet(roles[rng.Intn(len(roles))])}
		nOffers := rng.Intn(5) + 1
		for i := 0; i < nOffers; i++ {
			p.Offers = append(p.Offers, Offer{
				ID:   uint64(i + 1),
				PID:  pidPool[rng.Intn(len(pidPool))],
				Role: roles[rng.Intn(len(roles))],
			})
		}
		asg, ok := Find(p)
		if !ok {
			continue
		}
		usedPID := map[ids.PID]bool{}
		for _, o := range asg {
			usedPID[o.PID] = true
		}
		for _, o := range p.Offers {
			if _, filled := asg[o.Role]; filled || usedPID[o.PID] {
				continue
			}
			// Unconstrained offer for an unfilled role with a fresh PID:
			// adding it keeps consistency, so Find was not maximal.
			if len(o.With) == 0 && consistentWith(asg, o) {
				t.Fatalf("trial %d: offer %v extends assignment %v (not maximal)", trial, o, asg)
			}
		}
	}
}
