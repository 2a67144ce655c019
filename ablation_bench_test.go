// Ablation benchmarks for the design choices DESIGN.md calls out: the same
// workload with one semantic knob flipped at a time. Each is a resident cast
// plus b.N foreground enrollments (perfbench.Performances).
package script_test

import (
	"fmt"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
)

// benchPolicies drives b.N performances of one star-shaped body (s sends to
// each of r[1..n] in turn) under the given policies.
func benchPolicies(b *testing.B, name string, n int, init core.Initiation, term core.Termination) {
	def := core.NewScript(name).
		Role("s", func(rc core.Ctx) error {
			for i := 1; i <= n; i++ {
				if err := rc.Send(ids.Member("r", i), 1); err != nil {
					return err
				}
			}
			return nil
		}).
		Family("r", n, func(rc core.Ctx) error {
			_, err := rc.Recv(ids.Role("s"))
			return err
		}).
		Initiation(init).
		Termination(term).
		MustBuild()
	perfbench.Performances(b, def,
		perfbench.Cast(n, "R", func(i int) ids.RoleRef { return ids.Member("r", i) }),
		func(int) core.Enrollment { return core.Enrollment{PID: "T", Role: ids.Role("s")} })
}

// BenchmarkAblationInitiationPolicy runs one identical star-shaped body
// under delayed vs immediate initiation (same termination), isolating the
// cost of atomic matching vs incremental admission.
func BenchmarkAblationInitiationPolicy(b *testing.B) {
	for _, init := range []core.Initiation{core.DelayedInitiation, core.ImmediateInitiation} {
		b.Run("initiation="+init.String(), func(b *testing.B) {
			benchPolicies(b, "abl_init", 8, init, core.ImmediateTermination)
		})
	}
}

// BenchmarkAblationTerminationPolicy isolates delayed vs immediate release.
func BenchmarkAblationTerminationPolicy(b *testing.B) {
	for _, term := range []core.Termination{core.DelayedTermination, core.ImmediateTermination} {
		b.Run("termination="+term.String(), func(b *testing.B) {
			benchPolicies(b, "abl_term", 8, core.DelayedInitiation, term)
		})
	}
}

// BenchmarkAblationPartnerNaming compares partners-unnamed enrollment with
// full partners-named enrollment (every participant pins every other),
// isolating the matcher's constraint-checking cost.
func BenchmarkAblationPartnerNaming(b *testing.B) {
	const n = 4
	fullBinding := func() map[ids.RoleRef]ids.PIDSet {
		with := map[ids.RoleRef]ids.PIDSet{ids.Role(patterns.RoleSender): ids.NewPIDSet("T")}
		for i := 1; i <= n; i++ {
			with[perfbench.Recipient(i)] = ids.NewPIDSet(ids.PID(fmt.Sprintf("R%d", i)))
		}
		return with
	}
	for _, named := range []bool{false, true} {
		name := "naming=unnamed"
		if named {
			name = "naming=full"
		}
		b.Run(name, func(b *testing.B) {
			recipients := perfbench.Cast(n, "R", perfbench.Recipient)
			for i := range recipients {
				if named {
					recipients[i].With = fullBinding()
				}
			}
			perfbench.Performances(b, patterns.StarBroadcast(n), recipients, func(i int) core.Enrollment {
				e := core.Enrollment{PID: "T", Role: ids.Role(patterns.RoleSender), Args: []any{i}}
				if named {
					e.With = fullBinding()
				}
				return e
			})
		})
	}
}

// BenchmarkAblationCriticalSets compares a lock-manager-shaped script with
// explicit critical sets (reader XOR writer suffices) against an
// all-roles-critical variant where both must always enroll.
func BenchmarkAblationCriticalSets(b *testing.B) {
	const k = 3
	sendToManagers := func(what string) core.RoleBody {
		return func(rc core.Ctx) error {
			for i := 1; i <= k; i++ {
				if err := rc.Send(ids.Member("m", i), what); err != nil {
					return err
				}
			}
			return nil
		}
	}
	build := func(withCritical bool) core.Definition {
		builder := core.NewScript("abl_crit").
			Family("m", k, func(rc core.Ctx) error {
				for _, client := range []ids.RoleRef{ids.Role("rd"), ids.Role("wr")} {
					if rc.Terminated(client) {
						continue
					}
					if _, err := rc.Recv(client); err != nil {
						return err
					}
				}
				return nil
			}).
			Role("rd", sendToManagers("r")).
			Role("wr", sendToManagers("w"))
		if withCritical {
			managers := ids.FamilyMembers("m", k)
			builder = builder.
				CriticalSet(append(append([]ids.RoleRef{}, managers...), ids.Role("rd"))...).
				CriticalSet(append(append([]ids.RoleRef{}, managers...), ids.Role("wr"))...)
		}
		return builder.MustBuild()
	}

	// With critical sets only the reader enrolls per performance; without,
	// a writer must participate in every performance too.
	for _, withCritical := range []bool{true, false} {
		name := "critical=declared"
		if !withCritical {
			name = "critical=all-roles"
		}
		b.Run(name, func(b *testing.B) {
			residents := perfbench.Cast(k, "M", func(i int) ids.RoleRef { return ids.Member("m", i) })
			if !withCritical {
				residents = append(residents, core.Enrollment{PID: "W", Role: ids.Role("wr")})
			}
			perfbench.Performances(b, build(withCritical), residents,
				func(int) core.Enrollment { return core.Enrollment{PID: "R", Role: ids.Role("rd")} })
		})
	}
}
