package match

import (
	"math/rand"
	"sort"

	"github.com/scriptabs/goscript/internal/ids"
)

// referenceFind is Find as it stood before the dense-index rewrite, moved
// here verbatim (map-keyed search, per-role sort.Slice, unconditional
// constraint checks, leaf coverage recomputed from the assignment) with one
// change applied to both: a nil partner set is no constraint. FuzzFind holds
// Find to the exact assignment this returns; the map-based closed and
// consistentWith also serve the property tests.

// criticalSets returns the problem's critical sets, defaulting to the whole
// role collection.
func (p *Problem) criticalSets() []ids.RoleSet {
	if len(p.CriticalSets) > 0 {
		return p.CriticalSets
	}
	return []ids.RoleSet{p.Roles.Clone()}
}

func referenceFind(p Problem) (Assignment, bool) {
	offersByRole := p.offersByRole()
	roleOrder := p.Roles.Sorted()

	// Fast infeasibility check and search pruning: a critical set is viable
	// only if every one of its roles has at least one pending offer. This
	// matters because enrollments usually accumulate one at a time — the
	// no-match case must be cheap, and an unpruned skip/fill search is
	// exponential precisely when no match exists.
	viable := p.viableCriticalSets(offersByRole)
	if len(viable) == 0 {
		return nil, false
	}

	// Try to build a consistent core covering some critical set, searching
	// roles in a fixed order with "fill with offer k" and "leave unfilled"
	// branches. Preferring fills makes the first solution greedy-maximal.
	asg := make(Assignment, len(roleOrder))
	used := make(map[ids.PID]bool, len(p.Offers))
	st := &searchState{
		viable:    viable,
		deadCount: make([]int, len(viable)),
		alive:     len(viable),
	}
	if !p.search(roleOrder, 0, asg, used, offersByRole, st) {
		return nil, false
	}
	// Extension fixpoint: admit any further consistent offers.
	for changed := true; changed; {
		changed = false
		for _, r := range roleOrder {
			if _, ok := asg[r]; ok {
				continue
			}
			for _, o := range offersByRole[r] {
				if used[o.PID] {
					continue
				}
				if !consistentWith(asg, o) {
					continue
				}
				asg[r] = o
				used[o.PID] = true
				changed = true
				break
			}
		}
	}
	return asg, true
}

// viableCriticalSets returns the critical sets whose every role has at
// least one pending offer.
func (p *Problem) viableCriticalSets(offersByRole map[ids.RoleRef][]Offer) []ids.RoleSet {
	var out []ids.RoleSet
	for _, cs := range p.criticalSets() {
		ok := true
		for r := range cs {
			if len(offersByRole[r]) == 0 {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cs)
		}
	}
	return out
}

// searchState tracks which viable critical sets are still coverable along
// the current search path: skipping a role kills every set containing it.
type searchState struct {
	viable    []ids.RoleSet
	deadCount []int // number of skipped roles per set; >0 means dead
	alive     int   // sets with deadCount == 0
}

// skip marks r skipped; it returns false when no critical set remains
// coverable (the branch can be pruned).
func (st *searchState) skip(r ids.RoleRef) bool {
	for i, cs := range st.viable {
		if cs.Contains(r) {
			if st.deadCount[i] == 0 {
				st.alive--
			}
			st.deadCount[i]++
		}
	}
	return st.alive > 0
}

// unskip undoes skip(r).
func (st *searchState) unskip(r ids.RoleRef) {
	for i, cs := range st.viable {
		if cs.Contains(r) {
			st.deadCount[i]--
			if st.deadCount[i] == 0 {
				st.alive++
			}
		}
	}
}

// search assigns roles roleOrder[i:] and reports whether a consistent,
// critical-set-covering assignment was reached. asg and used are mutated in
// place and restored on backtrack.
func (p *Problem) search(roleOrder []ids.RoleRef, i int, asg Assignment, used map[ids.PID]bool, offersByRole map[ids.RoleRef][]Offer, st *searchState) bool {
	if i == len(roleOrder) {
		return p.Covered(asg.Roles()) && closed(asg)
	}
	r := roleOrder[i]
	for _, o := range offersByRole[r] {
		if used[o.PID] {
			continue
		}
		if !partnersAllow(asg, o) {
			continue
		}
		asg[r] = o
		used[o.PID] = true
		if p.search(roleOrder, i+1, asg, used, offersByRole, st) {
			return true
		}
		delete(asg, r)
		delete(used, o.PID)
	}
	// Leave r unfilled — viable only if some critical set survives.
	ok := false
	if st.skip(r) {
		ok = p.search(roleOrder, i+1, asg, used, offersByRole, st)
	}
	st.unskip(r)
	return ok
}

// partnersAllow checks the mutual constraints that can be evaluated while
// the assignment is still partial: no already-chosen offer excludes o from
// its role, and o excludes no already-chosen offer from its role.
func partnersAllow(asg Assignment, o Offer) bool {
	for r, chosen := range asg {
		if s, ok := chosen.With[o.Role]; ok && !s.Contains(o.PID) {
			return false
		}
		if s, ok := o.With[r]; ok && !s.Contains(chosen.PID) {
			return false
		}
	}
	return true
}

// closed checks the constraints that require completeness: every constraint
// of every chosen offer references a filled role with an acceptable player.
func closed(asg Assignment) bool {
	for _, o := range asg {
		if !consistentWith(asg, o) {
			return false
		}
	}
	return true
}

// consistentWith reports whether offer o's constraints are fully satisfied
// by asg, and no member of asg excludes o. Used both by closed (where o is a
// member) and by the extension pass (where o is a candidate).
func consistentWith(asg Assignment, o Offer) bool {
	if !partnersAllow(asg, o) {
		// partnersAllow treats o's own entry (if present) as a partner;
		// self-comparison is harmless because a constraint on one's own
		// role must still admit one's own PID.
		return false
	}
	for q, s := range o.With {
		if s == nil {
			continue // the nil-set fix: no constraint on q
		}
		chosen, ok := asg[q]
		if !ok {
			return false // named partner role is unfilled
		}
		if !s.Contains(chosen.PID) {
			return false
		}
	}
	return true
}

// offersByRole indexes pending offers by role in fairness order.
func (p *Problem) offersByRole() map[ids.RoleRef][]Offer {
	m := make(map[ids.RoleRef][]Offer)
	for _, o := range p.Offers {
		m[o.Role] = append(m[o.Role], o)
	}
	switch p.Fairness {
	case Arbitrary:
		rng := rand.New(rand.NewSource(p.Seed))
		// Shuffle deterministically per role, iterating roles in sorted
		// order so the result depends only on (offers, seed).
		roles := make([]ids.RoleRef, 0, len(m))
		for r := range m {
			roles = append(roles, r)
		}
		sort.Slice(roles, func(i, j int) bool { return roles[i].Less(roles[j]) })
		for _, r := range roles {
			list := m[r]
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
	default: // FIFO
		for _, list := range m {
			sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
		}
	}
	return m
}
