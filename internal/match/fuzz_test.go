package match

import (
	"reflect"
	"slices"
	"testing"

	"github.com/scriptabs/goscript/internal/ids"
)

// The fuzzer's universe: eight roles (scalars and family members, so both
// halves of Less matter) and eight processes.
var (
	fuzzRoles = []ids.RoleRef{
		sender, rcpt1, rcpt2,
		ids.Member("manager", 1), ids.Member("manager", 2),
		ids.Role("reader"), ids.Role("writer"), ids.Role("x"),
	}
	fuzzPIDs = []ids.PID{"T", "P", "Q", "X", "A", "B", "M1", "M2"}
)

const fuzzMaxOffers = 12

// Indices into fuzzRoles and fuzzPIDs, for writing seeds.
const (
	fSender, fRcpt1, fRcpt2, fM1, fM2, fReader, fWriter = 0, 1, 2, 3, 4, 5, 6

	pT, pP, pQ, pX, pA, pB, pM1, pM2 = 0, 1, 2, 3, 4, 5, 6, 7
)

func roleMask(bits byte) ids.RoleSet {
	s := ids.NewRoleSet()
	for i, r := range fuzzRoles {
		if bits&(1<<i) != 0 {
			s.Add(r)
		}
	}
	return s
}

// fuzzProblem decodes a problem from bytes:
//
//	seed | role-collection mask | n critical sets (mod 4), a role mask each |
//	offers: role, pid, idHi, n constraints (mod 4), then (role, pid mask) each
//
// A critical set or an offer may name a role outside the collection, a
// process may offer several roles, and a zero pid mask is the nil set. Offer
// k gets ID 16*idHi+k+1: unique, and out of arrival order when idHi says so.
func fuzzProblem(data []byte) Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := Problem{Seed: int64(next())}
	p.Roles = roleMask(next())
	for n := next() % 4; n > 0; n-- {
		p.CriticalSets = append(p.CriticalSets, roleMask(next()))
	}
	for k := 0; len(data) > 0 && k < fuzzMaxOffers; k++ {
		o := Offer{Role: fuzzRoles[next()%8], PID: fuzzPIDs[next()%8]}
		o.ID = 16*uint64(next()) + uint64(k) + 1
		for n := next() % 4; n > 0; n-- {
			if o.With == nil {
				o.With = make(map[ids.RoleRef]ids.PIDSet)
			}
			q, bits := fuzzRoles[next()%8], next()
			var set ids.PIDSet
			for i, pid := range fuzzPIDs {
				if bits&(1<<i) != 0 {
					if set == nil {
						set = ids.NewPIDSet()
					}
					set[pid] = struct{}{}
				}
			}
			o.With[q] = set
		}
		p.Offers = append(p.Offers, o)
	}
	return p
}

// offer encodes one offer for a seed; cons are (role, pid mask) pairs.
func offer(role, pid, idHi byte, cons ...byte) []byte {
	return append([]byte{role, pid, idHi, byte(len(cons) / 2)}, cons...)
}

func seedBytes(rolesMask byte, crit []byte, offers ...[]byte) []byte {
	out := append([]byte{1, rolesMask, byte(len(crit))}, crit...)
	for _, o := range offers {
		out = append(out, o...)
	}
	return out
}

// reused is the one Scratch every input of FuzzFind and of the oracle test
// searches on, after searching on a fresh one: a slot a search leaves behind
// and the next one fails to clear shows as a difference between the two.
var reused Scratch

// findByTable is p searched through the other entry: a table compiled from
// p's collection and critical sets, the offers handed over with their slots.
// closed says which roles of the collection, by position in ids order, the
// table numbers; the others are what a definition's open families are to the
// scheduler — offered under a negative slot and numbered by the search — and
// since a table's default covers the roles it numbers only, the whole
// collection is then spelled out as the one critical set.
func findByTable(p Problem, closed func(i int) bool, sc *Scratch) ([]int32, bool) {
	var numbered []ids.RoleRef
	for i, r := range p.Roles.Sorted() {
		if closed(i) {
			numbered = append(numbered, r)
		}
	}
	critical := p.CriticalSets
	if len(critical) == 0 && len(numbered) < len(p.Roles) {
		critical = []ids.RoleSet{p.Roles}
	}
	tbl := Compile(numbered, critical)
	offers, slots := make([]*Offer, len(p.Offers)), make([]int32, len(p.Offers))
	for k := range p.Offers {
		offers[k] = &p.Offers[k]
		switch r, ok := tbl.slot(p.Offers[k].Role); {
		case ok:
			slots[k] = int32(r)
		case p.Roles.Contains(p.Offers[k].Role):
			slots[k] = -1
		default:
			slots[k] = noRole
		}
	}
	return tbl.FindCast(offers, slots, p.Fairness, p.Seed, sc)
}

// findOnBoth is Find run through both entries — by name, and through
// compiled tables that number all, every other and none of the collection's
// roles — each on a fresh Scratch and again on reused; all the casts must be
// the same offers in the same order.
func findOnBoth(t *testing.T, p Problem) (Assignment, bool) {
	t.Helper()
	fresh, ok := FindCast(p, nil)
	fresh = slices.Clone(fresh)
	same := func(entry string, again []int32, okAgain bool) {
		t.Helper()
		if ok != okAgain || !slices.Equal(fresh, again) {
			t.Fatalf("FindCast by name on a fresh scratch = %v, %v; %s = %v, %v\nproblem: %+v",
				fresh, ok, entry, again, okAgain, p)
		}
	}
	again, okAgain := FindCast(p, &reused)
	same("on the reused one", again, okAgain)
	for name, closed := range map[string]func(int) bool{
		"a table of every role":       func(int) bool { return true },
		"a table of every other role": func(i int) bool { return i%2 == 0 },
		"a table of no role":          func(int) bool { return false },
	} {
		again, okAgain = findByTable(p, closed, new(Scratch))
		same("through "+name, again, okAgain)
		again, okAgain = findByTable(p, closed, &reused)
		same("through "+name+", reused scratch", again, okAgain)
	}
	if !ok {
		return nil, false
	}
	asg := make(Assignment, len(again))
	for _, k := range again {
		asg[p.Offers[k].Role] = p.Offers[k]
	}
	return asg, true
}

// FuzzFind holds Find to referenceFind's exact assignment, under both
// fairness modes, and to the brute-force oracle's verdict; every input is
// searched by name and through compiled tables (findOnBoth), on a fresh
// Scratch and on the one all inputs share.
func FuzzFind(f *testing.F) {
	const broadcast, database = 0b111, 0b1111000
	// The table tests of match_test.go, restated in the fuzzer's universe.
	f.Add(seedBytes(broadcast, nil, // unnamed full cover
		offer(fSender, pT, 0), offer(fRcpt1, pP, 0), offer(fRcpt2, pQ, 0)))
	f.Add(seedBytes(broadcast, nil, // a role missing
		offer(fSender, pT, 0), offer(fRcpt1, pP, 0)))
	f.Add(seedBytes(broadcast, nil, // named partners agree
		offer(fSender, pT, 0, fRcpt1, 1<<pP, fRcpt2, 1<<pQ),
		offer(fRcpt1, pP, 0, fSender, 1<<pT), offer(fRcpt2, pQ, 0, fSender, 1<<pT)))
	f.Add(seedBytes(broadcast, nil, // a conflicting contender and an alternative
		offer(fSender, pT, 0), offer(fRcpt1, pP, 0, fSender, 1<<pX),
		offer(fRcpt1, pA, 0), offer(fRcpt2, pQ, 0)))
	f.Add(seedBytes(broadcast, nil, // either-of
		offer(fSender, pT, 0, fRcpt1, 1<<pA|1<<pB), offer(fRcpt1, pB, 0), offer(fRcpt2, pQ, 0)))
	f.Add(seedBytes(broadcast, []byte{1 << fSender}, // named partner absent
		offer(fSender, pT, 0, fRcpt1, 1<<pP)))
	f.Add(seedBytes(broadcast, []byte{1 << fSender}, // nil set: no constraint
		offer(fSender, pT, 0, fRcpt1, 0)))
	f.Add(seedBytes(database, []byte{0b0111000, 0b1011000}, // reader or writer, both admitted
		offer(fM1, pM1, 0), offer(fM2, pM2, 0), offer(fReader, pA, 0), offer(fWriter, pB, 0)))
	f.Add(seedBytes(0b11, []byte{1 << fSender}, // one process, one role
		offer(fSender, pA, 0), offer(fRcpt1, pA, 0)))
	f.Add(seedBytes(0b1, []byte{1 << fSender}, // FIFO by ID, not by position
		offer(fSender, pX, 1), offer(fSender, pT, 0), offer(fSender, pP, 0)))
	f.Add(seedBytes(broadcast, []byte{1 << fSender}, // extension chain
		offer(fSender, pT, 0), offer(fRcpt1, pP, 0, fRcpt2, 1<<pQ), offer(fRcpt2, pQ, 0)))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProblem(data)
		for _, p.Fairness = range []Fairness{FIFO, Arbitrary} {
			got, ok := findOnBoth(t, p)
			want, wantOK := referenceFind(p)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("fairness %d: Find = %v, %v; referenceFind = %v, %v\nproblem: %+v",
					p.Fairness, got, ok, want, wantOK, p)
			}
			if oracle := oracleFind(p); ok != oracle {
				t.Fatalf("fairness %d: Find = %v, oracle = %v\nproblem: %+v", p.Fairness, ok, oracle, p)
			}
		}
	})
}
