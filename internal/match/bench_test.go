package match

import (
	"fmt"
	"testing"

	"github.com/scriptabs/goscript/internal/ids"
)

func fullProblem(n int) Problem {
	roles := ids.NewRoleSet()
	var offers []Offer
	for i := 1; i <= n; i++ {
		r := ids.Member("w", i)
		roles.Add(r)
		offers = append(offers, Offer{ID: uint64(i), PID: ids.PID(fmt.Sprintf("P%d", i)), Role: r})
	}
	return Problem{Roles: roles, Offers: offers}
}

// BenchmarkFindFullHouse measures a successful match with one offer per role.
func BenchmarkFindFullHouse(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		p := fullProblem(n)
		b.Run(fmt.Sprintf("roles=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := Find(p); !ok {
					b.Fatal("no match")
				}
			}
		})
	}
}

// BenchmarkFindNoMatch measures the pruned failure path: all offers present
// except one critical role — the common case while enrollments accumulate.
func BenchmarkFindNoMatch(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		p := fullProblem(n)
		p.Offers = p.Offers[1:] // first role unfilled; default critical set fails
		b.Run(fmt.Sprintf("roles=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := Find(p); ok {
					b.Fatal("unexpected match")
				}
			}
		})
	}
}

// BenchmarkFindWithConstraints measures matching under full partner naming.
func BenchmarkFindWithConstraints(b *testing.B) {
	const n = 8
	p := fullProblem(n)
	for i := range p.Offers {
		with := make(map[ids.RoleRef]ids.PIDSet, n-1)
		for j := 1; j <= n; j++ {
			if j-1 == i {
				continue
			}
			with[ids.Member("w", j)] = ids.NewPIDSet(ids.PID(fmt.Sprintf("P%d", j)))
		}
		p.Offers[i].With = with
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Find(p); !ok {
			b.Fatal("no match")
		}
	}
}

// starProblem and lockProblem are the two problems benchmark/layers.go
// times as match.find_star25_us and match.find_lock_us, so the layer
// metrics have an in-tree twin.
func starProblem(n int) Problem {
	roles := ids.NewRoleSet(ids.Role("sender"))
	var offers []Offer
	for i, r := range ids.FamilyMembers("recipient", n) {
		roles.Add(r)
		offers = append(offers, Offer{ID: uint64(i + 1), PID: ids.PID(fmt.Sprintf("R%d", i+1)), Role: r})
	}
	offers = append(offers, Offer{ID: uint64(n + 1), PID: "T0", Role: ids.Role("sender")})
	return Problem{Roles: roles, Offers: offers, Fairness: FIFO}
}

func lockProblem(k int) Problem {
	managers := ids.FamilyMembers("manager", k)
	reader, writer := ids.Role("reader"), ids.Role("writer")
	roles := ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), reader, writer)...)
	var offers []Offer
	for i, r := range managers {
		offers = append(offers, Offer{ID: uint64(i + 1), PID: ids.PID(fmt.Sprintf("M%d", i+1)), Role: r})
	}
	offers = append(offers, Offer{ID: uint64(k + 1), PID: "C0", Role: reader})
	return Problem{
		Roles: roles,
		CriticalSets: []ids.RoleSet{
			ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), reader)...),
			ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), writer)...),
		},
		Offers:   offers,
		Fairness: FIFO,
	}
}

// BenchmarkFindStar25 is the cast a 24-recipient star broadcast forms.
func BenchmarkFindStar25(b *testing.B) {
	p := starProblem(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if asg, ok := Find(p); !ok || len(asg) != 25 {
			b.Fatal("no full match")
		}
	}
}

// BenchmarkFindLock is the lock manager's reader-only cast: three managers
// and a reader pending, two critical sets.
func BenchmarkFindLock(b *testing.B) {
	p := lockProblem(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if asg, ok := Find(p); !ok || len(asg) != 4 {
			b.Fatal("no match")
		}
	}
}

// BenchmarkFindCast is the pair CI's bench-smoke job reads as a ratio: the
// two casts above on a kept Scratch, through the by-name front (which sorts
// the offers by role and compiles the critical sets on every call) and
// through a table compiled once, as the scheduler searches. The table entry
// must take at most half the front's time and allocate nothing.
func BenchmarkFindCast(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Problem
		cast int
	}{{"star25", starProblem(24), 25}, {"lock", lockProblem(3), 4}} {
		b.Run(c.name+"/by=name", func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if cast, ok := FindCast(c.p, &sc); !ok || len(cast) != c.cast {
					b.Fatal("no full match")
				}
			}
		})
		b.Run(c.name+"/by=table", func(b *testing.B) {
			tbl := Compile(c.p.Roles.Sorted(), c.p.CriticalSets)
			offers, slots := make([]*Offer, len(c.p.Offers)), make([]int32, len(c.p.Offers))
			for k := range c.p.Offers {
				r, _ := tbl.slot(c.p.Offers[k].Role)
				offers[k], slots[k] = &c.p.Offers[k], int32(r)
			}
			var sc Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cast, ok := tbl.FindCast(offers, slots, c.p.Fairness, c.p.Seed, &sc); !ok || len(cast) != c.cast {
					b.Fatal("no full match")
				}
			}
		})
	}
}
