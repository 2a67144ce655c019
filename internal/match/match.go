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
	"hash/maphash"
	"math/bits"
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
// Cost: Find is the by-name front of the one search, Table.FindCast. It sorts
// the offers by role to number the offered roles, compiles the critical sets
// over those numbers, and searches; a caller that matches one definition
// again and again compiles once (Compile) and hands the slots over. The search
// itself is a counting pass that buckets the offers by slot and, when no offer
// carries a constraint — the paper's partners-unnamed common case — a single
// pass over the roles, since every constraint check is vacuous and is skipped.
// With constraints each candidate is checked against the partial cast, and
// the fill/skip search may backtrack.
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
//
// The table it compiles, in sc, has a slot for each offered role of the
// collection and no other: a role nobody offers can only make the critical
// sets that name it unreachable, which their sizes say.
func FindCast(p Problem, sc *Scratch) ([]int32, bool) {
	if sc == nil {
		sc = new(Scratch)
	}
	n := len(p.Offers)
	ints := sc.reserve(2*n + tableInts(n, len(p.CriticalSets)) + searchInts(n, n, len(p.CriticalSets)))
	byRole, slots := carve(&ints, n), carve(&ints, n)
	offers := slices.Grow(sc.offers[:0], n)
	for k := range p.Offers {
		offers, byRole[k] = append(offers, &p.Offers[k]), int32(k)
	}
	slices.SortFunc(byRole, func(a, b int32) int { return p.Offers[a].Role.Compare(p.Offers[b].Role) })
	t := &sc.table
	t.roles = slices.Grow(t.roles[:0], n)
	for i, k := range byRole {
		switch role := offers[k].Role; {
		case i > 0 && role == offers[byRole[i-1]].Role:
			slots[k] = slots[byRole[i-1]]
		case p.Roles.Contains(role):
			slots[k] = int32(len(t.roles))
			t.roles = append(t.roles, role)
		default:
			slots[k] = noRole
		}
	}
	sc.offers = offers
	t.compile(&ints, len(p.Roles), p.CriticalSets, false)
	return t.findCast(offers, slots, p.Fairness, p.Seed, sc, ints)
}

// Table is the part of a matching problem a script definition fixes, compiled
// once per definition (core.NewInstance): the closed roles — a role's index
// among them is its slot — and which of them each critical set names, which is
// how both the search and the scheduler's counters read the sets.
type Table struct {
	roles []ids.RoleRef // in ids order
	// names[i*len(roles)+r] is 1 when critical set i names role slot r, and
	// size[i] is how many roles it names in all. When no set was declared there
	// is one, it names every slot, and its size is the whole collection's.
	names, size []int32
	// open lists the members of open families, which have no slot, that the
	// declared sets name.
	open  []openMember
	visit []int32 // 0..len(roles)-1: role order when the search numbers no role of its own
}

type openMember struct {
	role ids.RoleRef
	set  int32
}

// noRole is the slot FindCast gives an offer for a role outside the
// collection: bucketed and shuffled among the others (the seeded draws are a
// function of every offer), never a candidate.
const noRole = -2

// Compile builds the table of a definition whose closed roles are roles, in
// ids order (the table keeps the slice), and whose declared critical sets are
// critical — none meaning that the closed roles are, all of them.
func Compile(roles []ids.RoleRef, critical []ids.RoleSet) *Table {
	t := &Table{roles: roles}
	ints := make([]int32, tableInts(len(roles), len(critical)))
	t.compile(&ints, len(roles), critical, true)
	return t
}

// tableInts returns how many ints compile cuts for n roles and nsets sets.
func tableInts(n, nsets int) int { return n + max(1, nsets)*(n+1) }

// compile fills t in for t.roles and the critical sets, in tableInts zeroed
// ints it cuts off *ints. A member with no slot counts towards its set's size;
// it is listed in t.open when open says that it is a member of an open family
// — the by-name front's are roles nobody offers, which need no list to stay
// unfilled. whole is the size of the collection, for the set that stands for it.
func (t *Table) compile(ints *[]int32, whole int, critical []ids.RoleSet, open bool) {
	n := len(t.roles)
	t.visit, t.size = carve(ints, n), carve(ints, max(1, len(critical)))
	t.names = carve(ints, len(t.size)*n)
	t.size[0] = int32(whole)
	for r := range t.visit {
		t.visit[r] = int32(r)
		if len(critical) == 0 {
			t.names[r] = 1
		}
	}
	for i, cs := range critical {
		t.size[i] = int32(len(cs))
		for role := range cs {
			if r, ok := t.slot(role); ok {
				t.names[i*n+r] = 1
			} else if open {
				t.open = append(t.open, openMember{role, int32(i)})
			}
		}
	}
}

// carve cuts the first n elements off *buf.
func carve(buf *[]int32, n int) []int32 {
	part := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return part
}

// slot returns the slot of role, if it has one.
func (t *Table) slot(role ids.RoleRef) (int, bool) {
	return slices.BinarySearchFunc(t.roles, role, ids.RoleRef.Compare)
}

// Sizes returns the number of roles each critical set names, set by set; the
// caller must not modify it.
func (t *Table) Sizes() []int32 { return t.size }

// Names reports whether critical set i — an index into Sizes — names role,
// whose slot is slot (negative for a role without one).
func (t *Table) Names(i, slot int, role ids.RoleRef) bool {
	if slot >= 0 {
		return t.names[i*len(t.roles)+slot] != 0
	}
	return slices.Contains(t.open, openMember{role, int32(i)})
}

// FindCast is the search: offers are the pending enrollments in arrival
// order, slots[k] is the slot of offers[k].Role, or negative when the table
// has none for it — a member of an open family, which the search numbers for
// its own duration, after the closed roles and in ids order among themselves.
// Fairness, seed, sc and the result are FindCast's.
func (t *Table) FindCast(offers []*Offer, slots []int32, fairness Fairness, seed int64, sc *Scratch) ([]int32, bool) {
	return t.findCast(offers, slots, fairness, seed, sc, nil)
}

// findCast is FindCast on ints, what the by-name front left of the ints it
// reserved in sc; nil has the search reserve its own.
func (t *Table) findCast(offers []*Offer, slots []int32, fairness Fairness, seed int64, sc *Scratch, ints []int32) ([]int32, bool) {
	s := search{t: t, offers: offers}
	if !s.init(slots, fairness, seed, sc, ints) || !s.fill(0) {
		return nil, false
	}
	// Extension fixpoint: admit any further consistent offers.
	for changed := true; changed; {
		changed = false
		for _, r := range s.visit {
			if s.chosen[r] >= 0 {
				continue
			}
			for _, k := range s.order[s.lo[r]:s.hi[r]] {
				if s.used[s.pid[k]] == 0 && (!s.constrained || s.satisfied(s.offers[k])) {
					s.chosen[r], s.used[s.pid[k]], changed = k, 1, true
					break
				}
			}
		}
	}
	cast := s.cast[:0]
	for _, r := range s.visit {
		if k := s.chosen[r]; k >= 0 {
			cast = append(cast, k)
		}
	}
	return cast, true
}

// Scratch is the working memory of one search at a time: the arrays the
// search state and the by-name front slice, grown to the largest problem seen
// and cleared at the start of every search, so a search on a kept Scratch
// reads nothing an earlier one left and allocates nothing once warm (a seeded
// source for Arbitrary fairness aside). The zero value is ready to use.
type Scratch struct {
	ints   []int32
	extra  []ids.RoleRef // the roles a search numbers itself
	offers []*Offer      // the by-name front's offers and
	table  Table         // its table, whose roles keep their array
}

// reserve returns n zeroed ints of sc.
func (sc *Scratch) reserve(n int) []int32 {
	if cap(sc.ints) < n {
		sc.ints = make([]int32, n)
	}
	sc.ints = sc.ints[:n]
	clear(sc.ints)
	return sc.ints
}

// searchInts returns how many ints a search of n offers for nr roles and
// nsets declared critical sets cuts.
func searchInts(n, nr, nsets int) int {
	return 4*n + 5*nr + max(1, nsets) + processBuckets(n)
}

// processBuckets is the size of the table a search numbers n offers'
// processes through: a power of two, less than half full.
func processBuckets(n int) int { return 1 << bits.Len(uint(2*n)) }

// search is the state of one FindCast. Roles are numbered by slot — the
// table's, then one for each offered role it has none for, extra, in ids
// order — and everything kept per role or per offer is a slice indexed by
// slot or by offer.
type search struct {
	t      *Table
	offers []*Offer
	extra  []ids.RoleRef
	visit  []int32 // the slots in ids order of their roles: the order of the search and of the cast
	order  []int32 // offers grouped by slot, each group in fairness order
	lo, hi []int32 // order[lo[r]:hi[r]] are the candidates for role r
	chosen []int32 // the offer filling role r, or -1
	cast   []int32 // the result
	// pid[k] is the first offer of offer k's process — equal PIDs share a
	// number — and used[pid] is 1 while that process fills a role.
	pid, used []int32
	// constrained is set when some offer carries a partner constraint;
	// otherwise allows, satisfied and closed are vacuously true and skipped.
	constrained bool
	// dead[i] counts the roles critical set i names that the current path
	// cannot fill — nobody offers them, or it left them unfilled — and alive
	// the sets with dead[i] == 0. A path is pruned when alive reaches 0, so a
	// complete path always covers a critical set.
	dead  []int32
	alive int
}

var pidSeed = maphash.MakeSeed()

// init buckets the offers by slot in fairness order and counts what each
// critical set is missing; it reports false when none is whole, which keeps
// the no-match case — the usual one while enrollments accumulate — cheap and
// the fill/skip search, exponential exactly when no match exists, pruned.
func (s *search) init(slots []int32, fairness Fairness, seed int64, sc *Scratch, ints []int32) bool {
	t, offers := s.t, s.offers
	extra := sc.extra[:0]
	for k, slot := range slots {
		if slot < 0 {
			extra = append(extra, offers[k].Role)
		}
	}
	slices.SortFunc(extra, ids.RoleRef.Compare)
	extra = slices.Compact(extra)
	sc.extra, s.extra = extra, extra
	n, nc, nr := len(offers), len(t.roles), len(t.roles)+len(extra)
	if ints == nil {
		ints = sc.reserve(searchInts(n, nr, len(t.size)))
	}
	s.order, s.pid, s.used = carve(&ints, n), carve(&ints, n), carve(&ints, n)
	s.lo, s.hi, s.chosen, s.cast = carve(&ints, nr), carve(&ints, nr), carve(&ints, nr), carve(&ints, nr)
	s.dead, s.visit = carve(&ints, len(t.size)), t.visit
	at := slots // at[k] is the slot of offer k, the search's own included
	if len(extra) > 0 {
		at, s.visit = carve(&ints, n), carve(&ints, nr)
		for k, slot := range slots {
			if at[k] = slot; slot < 0 {
				x, _ := slices.BinarySearchFunc(extra, offers[k].Role, ids.RoleRef.Compare)
				at[k] = int32(nc + x)
			}
		}
		c, x := 0, 0
		for i := range s.visit {
			if x == len(extra) || (c < nc && t.roles[c].Compare(extra[x]) < 0) {
				s.visit[i], c = int32(c), c+1
			} else {
				s.visit[i], x = int32(nc+x), x+1
			}
		}
	}
	// Processes are numbered through an open-addressed table of offers: a slot
	// holds one more than the first offer of the processes that hash there.
	table := ints[:processBuckets(n)]
	for k, o := range offers {
		s.constrained = s.constrained || len(o.With) > 0
		s.hi[at[k]]++
		for h := maphash.String(pidSeed, string(o.PID)); ; h++ {
			first := &table[h&uint64(len(table)-1)]
			if *first == 0 {
				*first = int32(k) + 1
			}
			if s.pid[k] = *first - 1; *first == int32(k)+1 || offers[*first-1].PID == o.PID {
				break
			}
		}
	}
	// A counting pass: hi[r] counts slot r's offers, then runs from where they
	// start to where they end as they are placed, in arrival order — which is
	// FIFO order unless the IDs say otherwise.
	sum := int32(0)
	for r, c := range s.hi {
		s.lo[r], s.hi[r], s.chosen[r] = sum, sum, -1
		sum += c
	}
	inOrder := true
	for k, r := range at {
		if i := s.hi[r]; i > s.lo[r] && offers[s.order[i-1]].ID > offers[k].ID {
			inOrder = false
		}
		s.order[s.hi[r]] = int32(k)
		s.hi[r]++
	}
	if fairness == Arbitrary {
		// Each role's offers as offered, shuffled, the roles in ids order.
		rng := rand.New(rand.NewSource(seed))
		for _, r := range s.visit {
			list := s.order[s.lo[r]:s.hi[r]]
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
		}
	} else if !inOrder {
		for r := range s.hi {
			slices.SortFunc(s.order[s.lo[r]:s.hi[r]], func(a, b int32) int { return cmp.Or(cmp.Compare(offers[a].ID, offers[b].ID), cmp.Compare(a, b)) })
		}
	}
	for r := nc; r < nr; r++ {
		if slots[s.order[s.lo[r]]] == noRole {
			s.hi[r] = s.lo[r] // shuffled like any other, and never a candidate
		}
	}
	// A critical set is short of the roles it names that have no candidate.
	for i, missing := range t.size {
		for r, named := range t.names[i*nc : (i+1)*nc] {
			if named != 0 && s.hi[r] > s.lo[r] {
				missing--
			}
		}
		for x, role := range extra {
			if s.hi[nc+x] > s.lo[nc+x] && t.Names(i, -1, role) {
				missing--
			}
		}
		if s.dead[i] = missing; missing == 0 {
			s.alive++
		}
	}
	return s.alive > 0
}

// index returns the number of role, if it has one.
func (s *search) index(role ids.RoleRef) (int, bool) {
	if r, ok := s.t.slot(role); ok {
		return r, true
	}
	x, ok := slices.BinarySearchFunc(s.extra, role, ids.RoleRef.Compare)
	return len(s.t.roles) + x, ok
}

// fill assigns the roles from the i-th in role order up — each with its first
// admissible candidate, so the first solution is greedy-maximal, or left
// unfilled — and reports whether a consistent assignment covering a critical
// set was reached. State is restored on backtrack.
func (s *search) fill(i int) bool {
	if i == len(s.visit) {
		return !s.constrained || s.closed()
	}
	r := s.visit[i]
	for _, k := range s.order[s.lo[r]:s.hi[r]] {
		if s.used[s.pid[k]] != 0 || (s.constrained && !s.allows(s.offers[k])) {
			continue
		}
		s.chosen[r], s.used[s.pid[k]] = k, 1
		if s.fill(i + 1) {
			return true
		}
		s.chosen[r], s.used[s.pid[k]] = -1, 0
	}
	// Leave r unfilled — viable only if some critical set survives.
	ok := s.skip(r, 1) && s.fill(i+1)
	if !ok {
		s.skip(r, -1)
	}
	return ok
}

// skip marks role r unfilled (d = 1) or undoes that (d = -1), and reports
// whether a critical set remains coverable.
func (s *search) skip(r, d int32) bool {
	t, nc := s.t, len(s.t.roles)
	for i := range s.dead {
		if int(r) < nc {
			if t.names[i*nc+int(r)] == 0 {
				continue
			}
		} else if !t.Names(i, -1, s.extra[int(r)-nc]) {
			continue
		}
		if s.dead[i] == 0 {
			s.alive--
		}
		if s.dead[i] += d; s.dead[i] == 0 {
			s.alive++
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
	for _, k := range s.chosen {
		if k < 0 {
			continue
		}
		c := s.offers[k]
		if set, ok := c.With[o.Role]; ok && !set.Contains(o.PID) {
			return false
		}
		if set, ok := o.With[c.Role]; ok && !set.Contains(c.PID) {
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
		if k >= 0 && !s.satisfied(s.offers[k]) {
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
