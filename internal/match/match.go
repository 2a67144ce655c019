// Package match solves the enrollment-matching problem of the paper's
// Section II: given a set of pending enrollment offers — each naming a role
// and, optionally, constraints on which processes must play the other roles —
// find a consistent binding of processes to roles that covers a critical
// role set, so that a performance may begin.
//
// The paper's three naming regimes are all expressible:
//
//   - partners-named enrollment: the offer constrains every partner role to
//     a single process;
//   - partners-unnamed enrollment: the offer carries no constraints;
//   - partial naming: constraints on some roles only, and "either A or B"
//     constraints as multi-element PID sets.
//
// Processes jointly enroll only when their specifications agree on the
// binding of processes to roles; when several processes contend for one
// role, the choice is non-deterministic (Arbitrary fairness) or by order of
// arrival (FIFO fairness, as in Ada).
package match

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"github.com/scriptabs/goscript/internal/ids"
)

// Offer is one pending enrollment.
type Offer struct {
	// ID is the arrival sequence number; lower is earlier. It is the FIFO
	// fairness key and must be unique across pending offers.
	ID uint64
	// PID is the enrolling process.
	PID ids.PID
	// Role is the role the process wishes to play.
	Role ids.RoleRef
	// With are the partner constraints: for each named role, the set of
	// processes acceptable in it. A nil map or nil set means unconstrained.
	// A constraint requires the named role to be FILLED by one of the named
	// processes in any performance this offer participates in.
	With map[ids.RoleRef]ids.PIDSet
}

func (o Offer) String() string {
	return fmt.Sprintf("offer#%d %s as %s", o.ID, o.PID, o.Role)
}

// Fairness selects how contention between offers for one role is resolved.
type Fairness int

const (
	// FIFO serves offers in order of arrival (the paper: "In Ada, repeated
	// enrollments are serviced in order of arrival").
	FIFO Fairness = iota + 1
	// Arbitrary makes a seeded pseudo-random choice (the paper: "in CSP no
	// fairness is assumed").
	Arbitrary
)

// Problem is one matching instance.
type Problem struct {
	// Roles is the script's full role collection.
	Roles ids.RoleSet
	// CriticalSets lists the role subsets that enable a performance
	// (Section II, "Critical Role Set"). Empty means the entire collection
	// of roles is critical.
	CriticalSets []ids.RoleSet
	// Offers are the pending enrollments, in arrival order.
	Offers []Offer
	// Fairness resolves contention. Zero value behaves like FIFO.
	Fairness Fairness
	// Seed drives Arbitrary fairness; ignored for FIFO.
	Seed int64
}

// Assignment binds roles to the offers that fill them.
type Assignment map[ids.RoleRef]Offer

// Roles returns the set of roles filled by the assignment.
func (a Assignment) Roles() ids.RoleSet {
	s := make(ids.RoleSet, len(a))
	for r := range a {
		s.Add(r)
	}
	return s
}

// Covered reports whether the filled role set satisfies at least one
// critical set of the problem — the whole role collection when none is
// declared.
func (p *Problem) Covered(filled ids.RoleSet) bool {
	if len(p.CriticalSets) == 0 {
		return p.Roles.SubsetOf(filled)
	}
	for _, cs := range p.CriticalSets {
		if cs.SubsetOf(filled) {
			return true
		}
	}
	return false
}

// Find searches for a consistent assignment that covers a critical set.
// The returned assignment is maximal under single-offer extension: no
// further pending offer can be added without violating consistency. One
// process fills at most one role (the paper's 1–1 rule for delayed
// initiation). Find returns false when no performance can start. The
// result depends only on (Roles, CriticalSets, Offers, Fairness, Seed).
//
// Consistency of an assignment A:
//
//   - each role is filled by at most one offer, each process fills at most
//     one role;
//   - for every chosen offer o and constraint (q → S) in o.With with S
//     non-nil: q is filled and A[q].PID ∈ S (constraints bind filled roles;
//     a named partner must actually be present);
//   - the filled roles cover at least one critical set.
//
// Cost: one sort of the offers by role (linear when they already arrive in
// role order), then, when no offer carries a constraint — the paper's
// partners-unnamed common case — a single pass over the roles, since every
// constraint check is vacuous and is skipped. With constraints each
// candidate is checked against the partial cast, and the fill/skip search
// may backtrack.
//
// Limitation (documented): the post-pass extension adds offers one at a
// time, so a pair of non-critical offers that each name the other would not
// be admitted jointly. The paper does not require maximality at all; we
// provide it so that, e.g., a reader and a writer both pending when the
// lock-manager performance forms are both admitted.
//
// Find is FindCast with the cast spelled out as a map; a caller that keeps
// its own record per offer wants the indices.
func Find(p Problem) (Assignment, bool) {
	cast, ok := FindCast(p, nil)
	if !ok {
		return nil, false
	}
	asg := make(Assignment, len(cast))
	for _, k := range cast {
		asg[p.Offers[k].Role] = p.Offers[k]
	}
	return asg, true
}

// FindCast is the search behind Find: it returns the matched offers as
// indices into p.Offers, in role order (ids.RoleRef.Compare), one per filled
// role. The search runs on sc, which a caller that searches repeatedly keeps
// and hands back (one search at a time); a nil sc allocates its own. The
// indices are part of the scratch and stay valid until its next search.
func FindCast(p Problem, sc *Scratch) ([]int32, bool) {
	if sc == nil {
		sc = new(Scratch)
	}
	s := sc.newSearch(&p)
	if s == nil || !s.fill(0) {
		return nil, false
	}
	// Extension fixpoint: admit any further consistent offers.
	for changed := true; changed; {
		changed = false
		for r := range s.roles {
			if s.chosen[r] >= 0 {
				continue
			}
			for _, k := range s.order[s.lo[r]:s.hi[r]] {
				if !s.used[s.pid[k]] && (!s.constrained || s.satisfied(&s.offers[k])) {
					s.chosen[r], s.used[s.pid[k]], changed = k, true, true
					break
				}
			}
		}
	}
	// chosen is indexed by role, in role order: drop the unfilled ones.
	cast := s.chosen[:0]
	for _, k := range s.chosen {
		if k >= 0 {
			cast = append(cast, k)
		}
	}
	return cast, true
}

// Scratch is the working memory of one search at a time: the search state
// and the backing arrays it slices, grown to the largest problem seen and
// cleared at the start of every search, so a search on a kept Scratch reads
// nothing an earlier one left and allocates nothing once warm. The zero value
// is ready to use.
type Scratch struct {
	search search // its roles keep their array from one search to the next
	ints   []int32
	bools  []bool
	pids   map[ids.PID]int32
}

// search is the state of one Find. Roles and offers are dense indices: role
// r is roles[r], offer k is offers[k], and everything kept per role or per
// offer is a slice indexed by one of them.
type search struct {
	offers []Offer
	roles  []ids.RoleRef // the distinct offered roles, in Less order
	order  []int32       // offers grouped by role, each group in fairness order
	lo, hi []int32       // order[lo[r]:hi[r]] are the candidates for role r
	chosen []int32       // the offer filling role r, or -1
	pid    []int32       // pid[k] numbers offer k's process; equal PIDs share a number
	used   []bool        // used[pid]: that process already fills a role
	// constrained is set when some offer carries a partner constraint;
	// otherwise allows, satisfied and closed are vacuously true and skipped.
	constrained bool
	// The viable critical sets — those whose every role has a candidate —
	// as rows of a membership matrix, inSet[i*len(roles)+r]. dead[i] counts
	// the roles of set i the current path left unfilled; alive counts the
	// sets with dead[i] == 0. A path is pruned when alive reaches 0, so a
	// complete path always covers a critical set.
	inSet []bool
	dead  []int32
	alive int
}

// zeroed returns buf resliced to n zero elements, regrown when too small.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// newSearch buckets the offers by role in fairness order and finds the
// viable critical sets; it returns nil when there is none, which keeps the
// no-match case — the usual one while enrollments accumulate — cheap and
// the fill/skip search, exponential exactly when no match exists, pruned.
func (sc *Scratch) newSearch(p *Problem) *search {
	n, nsets := len(p.Offers), max(1, len(p.CriticalSets))
	sc.ints = zeroed(sc.ints, 5*n+nsets)
	ints := sc.ints
	if sc.pids == nil {
		sc.pids = make(map[ids.PID]int32, n)
	}
	clear(sc.pids)
	pids := sc.pids
	s := &sc.search
	roles := s.roles[:0]
	if cap(roles) < n {
		roles = make([]ids.RoleRef, 0, n)
	}
	*s = search{
		offers: p.Offers,
		roles:  roles,
		order:  ints[:n], lo: ints[n : 2*n], hi: ints[2*n : 3*n],
		chosen: ints[3*n : 4*n], pid: ints[4*n : 5*n],
	}
	for k := range p.Offers {
		o := &p.Offers[k]
		s.order[k], s.chosen[k] = int32(k), -1
		s.constrained = s.constrained || len(o.With) > 0
		id, ok := pids[o.PID]
		if !ok {
			id = int32(len(pids))
			pids[o.PID] = id
		}
		s.pid[k] = id
	}
	// One sort by (role, arrival) replaces a map of per-role lists; FIFO
	// arrival is the ID, Arbitrary shuffles each role's offers as offered.
	fifo := p.Fairness != Arbitrary
	slices.SortFunc(s.order, func(a, b int32) int {
		oa, ob := &p.Offers[a], &p.Offers[b]
		if c := oa.Role.Compare(ob.Role); c != 0 {
			return c
		}
		if fifo && oa.ID != ob.ID {
			return cmp.Compare(oa.ID, ob.ID)
		}
		return cmp.Compare(a, b)
	})
	for i, k := range s.order {
		r := len(s.roles) - 1
		if r < 0 || s.roles[r] != p.Offers[k].Role {
			s.roles = append(s.roles, p.Offers[k].Role)
			r++
			s.lo[r] = int32(i)
		}
		s.hi[r] = int32(i + 1)
	}
	s.chosen = s.chosen[:len(s.roles)]
	if !fifo {
		rng := rand.New(rand.NewSource(p.Seed))
		for r := range s.roles {
			list := s.order[s.lo[r]:s.hi[r]]
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
	}
	// An offer for a role outside the collection is never a candidate.
	offered := 0
	for r, role := range s.roles {
		if p.Roles.Contains(role) {
			offered++
		} else {
			s.hi[r] = s.lo[r]
		}
	}

	nr := len(s.roles)
	sc.bools = zeroed(sc.bools, len(pids)+nsets*nr)
	s.used, s.inSet = sc.bools[:len(pids)], sc.bools[len(pids):]
	if len(p.CriticalSets) == 0 && offered == len(p.Roles) {
		for r := range s.roles {
			s.inSet[r] = s.hi[r] > s.lo[r]
		}
		s.alive = 1
	}
	for _, cs := range p.CriticalSets {
		row := s.inSet[s.alive*nr : (s.alive+1)*nr]
		viable := true
		for role := range cs {
			r, ok := s.index(role)
			if viable = ok && s.hi[r] > s.lo[r]; !viable {
				clear(row)
				break
			}
			row[r] = true
		}
		if viable {
			s.alive++
		}
	}
	if s.alive == 0 {
		return nil
	}
	s.dead = ints[5*n : 5*n+s.alive]
	return s
}

// index returns the dense index of role, if any offer names it.
func (s *search) index(role ids.RoleRef) (int, bool) {
	return slices.BinarySearchFunc(s.roles, role, ids.RoleRef.Compare)
}

// fill assigns roles r and up — each with its first admissible candidate,
// so the first solution is greedy-maximal, or left unfilled — and reports
// whether a consistent assignment covering a critical set was reached.
// State is restored on backtrack.
func (s *search) fill(r int) bool {
	if r == len(s.roles) {
		return !s.constrained || s.closed()
	}
	for _, k := range s.order[s.lo[r]:s.hi[r]] {
		if s.used[s.pid[k]] || (s.constrained && !s.allows(&s.offers[k])) {
			continue
		}
		s.chosen[r], s.used[s.pid[k]] = k, true
		if s.fill(r + 1) {
			return true
		}
		s.chosen[r], s.used[s.pid[k]] = -1, false
	}
	// Leave r unfilled — viable only if some critical set survives.
	ok := s.skip(r, 1) && s.fill(r+1)
	if !ok {
		s.skip(r, -1)
	}
	return ok
}

// skip marks role r unfilled (d = 1) or undoes that (d = -1), and reports
// whether a critical set remains coverable.
func (s *search) skip(r int, d int32) bool {
	for i := range s.dead {
		if s.inSet[i*len(s.roles)+r] {
			if s.dead[i] == 0 {
				s.alive--
			}
			if s.dead[i] += d; s.dead[i] == 0 {
				s.alive++
			}
		}
	}
	return s.alive > 0
}

// allows checks the mutual constraints that can be evaluated while the
// assignment is still partial: no chosen offer excludes o from its role,
// and o excludes no chosen offer from its role. If o is itself chosen the
// self-comparison is harmless: a constraint on one's own role must still
// admit one's own PID.
func (s *search) allows(o *Offer) bool {
	for r, k := range s.chosen {
		if k < 0 {
			continue
		}
		c := &s.offers[k]
		if set, ok := c.With[o.Role]; ok && !set.Contains(o.PID) {
			return false
		}
		if set, ok := o.With[s.roles[r]]; ok && !set.Contains(c.PID) {
			return false
		}
	}
	return true
}

// satisfied reports whether the assignment allows o and fills every role o
// constrains with an acceptable process. It serves the leaf check (o a
// member) and the extension pass (o a candidate).
func (s *search) satisfied(o *Offer) bool {
	if !s.allows(o) {
		return false
	}
	for q, set := range o.With {
		if set == nil {
			continue // no constraint, as everywhere else
		}
		r, ok := s.index(q)
		if !ok || s.chosen[r] < 0 || !set.Contains(s.offers[s.chosen[r]].PID) {
			return false
		}
	}
	return true
}

// closed checks the constraints that require completeness: every chosen
// offer is satisfied.
func (s *search) closed() bool {
	for _, k := range s.chosen {
		if k >= 0 && !s.satisfied(&s.offers[k]) {
			return false
		}
	}
	return true
}

// CanJoin decides admission of an offer into a performance that is already
// running (immediate initiation, Section II): the offer's role must be
// unfilled, no current member may exclude the joiner, and the joiner's
// constraints on already-filled roles must hold. Constraints the joiner
// places on still-unfilled roles are not checked here — they are enforced
// against later joiners by the same rule, mutually.
func CanJoin(asg Assignment, o Offer) bool {
	if _, filled := asg[o.Role]; filled {
		return false
	}
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
