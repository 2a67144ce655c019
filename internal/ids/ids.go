// Package ids defines the primitive identities used throughout the script
// runtime: process identifiers, role references (scalar roles and members of
// indexed role families), and role sets.
//
// The paper ("Script: A Communication Abstraction Mechanism", Francez &
// Hailpern, PODC 1983) distinguishes between formal roles — the parameters of
// a script — and the actual processes that enroll to play them. This package
// provides the vocabulary for both sides of that binding.
package ids

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// PID identifies an enrolling process. In this runtime a "process" is any
// goroutine that enrolls under a stable name; the paper assumes a fixed
// network of named processes, so PIDs are opaque strings chosen by the
// application ("A", "reader-3", ...).
type PID string

// NoPID is the zero PID, meaning "no process".
const NoPID PID = ""

// ScalarIndex is the Index value of a RoleRef that refers to a scalar
// (non-family) role.
const ScalarIndex = -1

// RoleRef names one role of a script: either a scalar role ("sender") or one
// member of an indexed family ("recipient[3]"). Family indices are 1-based,
// following the paper's notation ROLE recipient [i:1..5].
type RoleRef struct {
	Name  string
	Index int
}

// Role returns a reference to the scalar role named name.
func Role(name string) RoleRef {
	return RoleRef{Name: name, Index: ScalarIndex}
}

// Member returns a reference to member i (1-based) of the role family named
// name.
func Member(name string, i int) RoleRef {
	return RoleRef{Name: name, Index: i}
}

// IsFamilyMember reports whether r refers to a member of an indexed family.
func (r RoleRef) IsFamilyMember() bool {
	return r.Index != ScalarIndex
}

// String renders the reference in the paper's notation: "sender" or
// "recipient[3]". A family member's rendering is built once and then served
// from memberNames: the same few roles are named on every enrollment and in
// every frame that addresses them.
func (r RoleRef) String() string {
	if r.Index == ScalarIndex {
		return r.Name
	}
	if len(r.Name) > maxCachedName {
		return r.render()
	}
	slot := &memberNames[r.nameSlot()]
	if m := slot.Load(); m != nil && m.ref == r {
		return m.s
	}
	m := &memberName{ref: r, s: r.render()}
	slot.Store(m)
	return m.s
}

func (r RoleRef) render() string { return r.Name + "[" + strconv.Itoa(r.Index) + "]" }

// memberNames is a direct-mapped cache of rendered family-member names. Its
// slot count and the length of a cached name are fixed, so names taken from
// the network cannot grow it; two roles that share a slot evict each other
// and cost what rendering always did.
var memberNames [1024]atomic.Pointer[memberName]

const maxCachedName = 64

type memberName struct {
	ref RoleRef
	s   string
}

var nameSeed = maphash.MakeSeed()

// nameSlot hashes the family name and adds the index, so the members of one
// family occupy consecutive slots and never evict each other.
func (r RoleRef) nameSlot() uint64 {
	return (maphash.String(nameSeed, r.Name) + uint64(r.Index)) % uint64(len(memberNames))
}

// ParseRoleRef parses the String form back into a RoleRef. It accepts
// "name" and "name[i]" with i >= 1.
func ParseRoleRef(s string) (RoleRef, error) {
	open := strings.IndexByte(s, '[')
	if open < 0 {
		if s == "" {
			return RoleRef{}, fmt.Errorf("parse role ref: empty string")
		}
		return Role(s), nil
	}
	if !strings.HasSuffix(s, "]") || open == 0 {
		return RoleRef{}, fmt.Errorf("parse role ref %q: malformed family index", s)
	}
	idx, err := strconv.Atoi(s[open+1 : len(s)-1])
	if err != nil {
		return RoleRef{}, fmt.Errorf("parse role ref %q: %w", s, err)
	}
	if idx < 1 {
		return RoleRef{}, fmt.Errorf("parse role ref %q: family index must be >= 1", s)
	}
	return Member(s[:open], idx), nil
}

// Less imposes a total order on role references: by name, then by index.
// Scalar roles order before any family member of the same name.
func (r RoleRef) Less(other RoleRef) bool { return r.Compare(other) < 0 }

// Compare is the three-way form of Less, for slices.SortFunc and
// slices.BinarySearchFunc: negative when r orders before other, zero when
// they are the same role, positive otherwise.
func (r RoleRef) Compare(other RoleRef) int {
	if c := cmp.Compare(r.Name, other.Name); c != 0 {
		return c
	}
	return cmp.Compare(r.Index, other.Index)
}

// RoleSet is a set of role references. The zero value is an empty set ready
// to use via the package-level constructors; mutating methods require a
// non-nil map, which NewRoleSet provides.
type RoleSet map[RoleRef]struct{}

// NewRoleSet builds a set containing the given roles.
func NewRoleSet(roles ...RoleRef) RoleSet {
	s := make(RoleSet, len(roles))
	for _, r := range roles {
		s[r] = struct{}{}
	}
	return s
}

// Add inserts r into the set.
func (s RoleSet) Add(r RoleRef) { s[r] = struct{}{} }

// Contains reports whether r is in the set.
func (s RoleSet) Contains(r RoleRef) bool {
	_, ok := s[r]
	return ok
}

// Len returns the number of roles in the set.
func (s RoleSet) Len() int { return len(s) }

// SubsetOf reports whether every role in s is also in other.
func (s RoleSet) SubsetOf(other RoleSet) bool {
	for r := range s {
		if !other.Contains(r) {
			return false
		}
	}
	return true
}

// Union returns a new set containing the roles of both s and other.
func (s RoleSet) Union(other RoleSet) RoleSet {
	u := make(RoleSet, len(s)+len(other))
	for r := range s {
		u[r] = struct{}{}
	}
	for r := range other {
		u[r] = struct{}{}
	}
	return u
}

// Clone returns an independent copy of the set.
func (s RoleSet) Clone() RoleSet {
	c := make(RoleSet, len(s))
	for r := range s {
		c[r] = struct{}{}
	}
	return c
}

// Sorted returns the roles in the set in the total order defined by Less.
func (s RoleSet) Sorted() []RoleRef {
	out := make([]RoleRef, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// String renders the set as "{a, b[1], b[2]}" in sorted order.
func (s RoleSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}

// PIDSet is a set of process identifiers, used for partner constraints of the
// form "role q must be played by one of these processes" (the paper's
// "either process A or process B" naming convention).
type PIDSet map[PID]struct{}

// NewPIDSet builds a set containing the given PIDs.
func NewPIDSet(pids ...PID) PIDSet {
	s := make(PIDSet, len(pids))
	for _, p := range pids {
		s[p] = struct{}{}
	}
	return s
}

// Contains reports whether p is in the set. A nil PIDSet means "any process"
// and contains every PID; this encodes the paper's partners-unnamed
// enrollment as the absence of a constraint.
func (s PIDSet) Contains(p PID) bool {
	if s == nil {
		return true
	}
	_, ok := s[p]
	return ok
}

// Len returns the number of PIDs in the set.
func (s PIDSet) Len() int { return len(s) }

// Sorted returns the PIDs in lexicographic order.
func (s PIDSet) Sorted() []PID {
	out := make([]PID, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as "{A, B}" in sorted order, or "*" for the nil
// (unconstrained) set.
func (s PIDSet) String() string {
	if s == nil {
		return "*"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(p))
	}
	b.WriteByte('}')
	return b.String()
}

// FamilyMembers returns references to all members 1..n of the family named
// name.
func FamilyMembers(name string, n int) []RoleRef {
	out := make([]RoleRef, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, Member(name, i))
	}
	return out
}
