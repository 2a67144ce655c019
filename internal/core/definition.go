// Package core implements the paper's communication abstraction: the
// *script*. A script localizes a pattern of communication among a set of
// formal *roles*; actual processes *enroll* into roles, and a collective
// activation of the roles is a *performance*.
//
// The runtime honours the paper's design goals:
//
//   - A role body executes in the enrolling goroutine — the paper's
//     requirement that a role is "a logical continuation of the enrolling
//     process" and runs on its processor. The native runtime creates no
//     coordinator process; coordination is a lock shared by the enrollers.
//     (The CSP and Ada *translations* in internal/trans use supervisor
//     processes, exactly as the paper's expressibility proofs do.)
//   - Both enrollment regimes (partners-named / partners-unnamed, and
//     partial naming with "either A or B" sets).
//   - Both initiation policies (delayed / immediate) and both termination
//     policies (delayed / immediate).
//   - Critical role sets, with the paper's Terminated(r) predicate and the
//     distinguished ErrRoleAbsent value for absent roles.
//   - The successive-activations rule: all roles of a performance terminate
//     before the next performance of the same instance begins (Figure 1).
//   - Section V extensions: open-ended role families, nested enrollment,
//     recursive scripts, and multiple instances of one definition.
package core

import (
	"fmt"
	"slices"

	"github.com/scriptabs/goscript/internal/ids"
)

// Initiation selects when a performance begins (Section II).
type Initiation int

const (
	// DelayedInitiation starts the performance only when processes are
	// enrolled in all roles of a critical role set; enrolled processes are
	// delayed until then, and the matching binds partners atomically.
	DelayedInitiation Initiation = iota + 1
	// ImmediateInitiation starts the performance upon the first enrollment;
	// other processes may enroll while the script is in progress, and a
	// role is delayed only if it attempts to communicate with an unfilled
	// role.
	ImmediateInitiation
)

// String returns "delayed" or "immediate".
func (i Initiation) String() string {
	switch i {
	case DelayedInitiation:
		return "delayed"
	case ImmediateInitiation:
		return "immediate"
	default:
		return fmt.Sprintf("initiation(%d)", int(i))
	}
}

// Termination selects when enrolled processes are released (Section II).
type Termination int

const (
	// DelayedTermination frees all processes together, after every filled
	// role of the performance has finished.
	DelayedTermination Termination = iota + 1
	// ImmediateTermination frees each process as soon as its own role
	// completes.
	ImmediateTermination
)

// String returns "delayed" or "immediate".
func (t Termination) String() string {
	switch t {
	case DelayedTermination:
		return "delayed"
	case ImmediateTermination:
		return "immediate"
	default:
		return fmt.Sprintf("termination(%d)", int(t))
	}
}

// RoleBody is the program text of one role. It runs in the goroutine of the
// process enrolled in the role (on the native runtime) and communicates
// with the other roles through its Ctx. A non-nil error is reported to the
// enrolling process wrapped in a RoleError.
type RoleBody func(rc Ctx) error

// roleDecl describes one declared role or role family.
type roleDecl struct {
	name string
	// family is true for indexed families (ROLE recipient [i:1..n]).
	family bool
	// size is the family cardinality; 0 with family=true means open-ended
	// (Section V: the number of roles is fixed only at run time).
	size int
	body RoleBody
}

// Definition is an immutable script definition, built with NewScript.
// A Definition corresponds to the paper's generic script; create runtime
// instances of it with NewInstance (Section II, "Successive Activations":
// multiple instances add no power but avoid re-coding the script).
type Definition struct {
	name         string
	order        []string // declaration order of role names
	decls        map[string]roleDecl
	initiation   Initiation
	termination  Termination
	criticalSets []ids.RoleSet
}

// Builder accumulates a script definition. All methods return the builder
// for chaining; errors are reported by Build.
type Builder struct {
	def  Definition
	errs []string
}

// NewScript starts the definition of a script with the given name.
// Policies default to delayed initiation and delayed termination — the
// combination under which "the body of the script is treated as a closed
// concurrent block".
func NewScript(name string) *Builder {
	b := &Builder{def: Definition{
		name:        name,
		decls:       make(map[string]roleDecl),
		initiation:  DelayedInitiation,
		termination: DelayedTermination,
	}}
	if name == "" {
		b.errs = append(b.errs, "script name is empty")
	}
	return b
}

// Role declares a scalar role with the given body.
func (b *Builder) Role(name string, body RoleBody) *Builder {
	b.declare(roleDecl{name: name, body: body})
	return b
}

// Family declares an indexed role family with members 1..size, all sharing
// one body (the paper's "ROLE recipient [i:1..5]"; the member learns its
// index from RoleCtx.Index).
func (b *Builder) Family(name string, size int, body RoleBody) *Builder {
	if size < 1 {
		b.errs = append(b.errs, fmt.Sprintf("family %s: size %d < 1", name, size))
	}
	b.declare(roleDecl{name: name, family: true, size: size, body: body})
	return b
}

// OpenFamily declares an open-ended role family (Section V, "dynamic arrays
// of roles, where the number of roles is not fixed until run-time").
// Members enroll with explicit indices; the family's extent for a given
// performance is fixed when the performance's membership closes. Open
// families never participate in the default critical set; scripts using
// them should declare critical sets explicitly.
func (b *Builder) OpenFamily(name string, body RoleBody) *Builder {
	b.declare(roleDecl{name: name, family: true, size: 0, body: body})
	return b
}

func (b *Builder) declare(d roleDecl) {
	if d.name == "" {
		b.errs = append(b.errs, "role name is empty")
		return
	}
	if d.body == nil {
		b.errs = append(b.errs, fmt.Sprintf("role %s: nil body", d.name))
		return
	}
	if _, dup := b.def.decls[d.name]; dup {
		b.errs = append(b.errs, fmt.Sprintf("role %s declared twice", d.name))
		return
	}
	b.def.decls[d.name] = d
	b.def.order = append(b.def.order, d.name)
}

// Initiation sets the initiation policy.
func (b *Builder) Initiation(i Initiation) *Builder {
	if i != DelayedInitiation && i != ImmediateInitiation {
		b.errs = append(b.errs, fmt.Sprintf("invalid initiation policy %d", int(i)))
	}
	b.def.initiation = i
	return b
}

// Termination sets the termination policy.
func (b *Builder) Termination(t Termination) *Builder {
	if t != DelayedTermination && t != ImmediateTermination {
		b.errs = append(b.errs, fmt.Sprintf("invalid termination policy %d", int(t)))
	}
	b.def.termination = t
	return b
}

// CriticalSet adds one critical role set: one of the role subsets whose
// joint enrollment enables a performance. Call repeatedly for alternative
// subsets. When no critical set is declared, the entire role collection is
// critical (the paper's default).
func (b *Builder) CriticalSet(roles ...ids.RoleRef) *Builder {
	b.def.criticalSets = append(b.def.criticalSets, ids.NewRoleSet(roles...))
	return b
}

// Build validates and returns the definition.
func (b *Builder) Build() (Definition, error) {
	if len(b.def.decls) == 0 {
		b.errs = append(b.errs, "script declares no roles")
	}
	for _, cs := range b.def.criticalSets {
		for r := range cs {
			if err := b.def.checkRole(r); err != nil {
				b.errs = append(b.errs, fmt.Sprintf("critical set %v: %v", cs, err))
			}
		}
	}
	if len(b.errs) > 0 {
		return Definition{}, &DefinitionError{Script: b.def.name, Reason: b.errs[0]}
	}
	return b.def, nil
}

// MustBuild is Build for static definitions; it panics on error (program
// initialization only).
func (b *Builder) MustBuild() Definition {
	def, err := b.Build()
	if err != nil {
		panic(err)
	}
	return def
}

// Name returns the script name.
func (d Definition) Name() string { return d.name }

// InitiationPolicy returns the initiation policy.
func (d Definition) InitiationPolicy() Initiation { return d.initiation }

// TerminationPolicy returns the termination policy.
func (d Definition) TerminationPolicy() Termination { return d.termination }

// RoleNames returns the declared role (and family) names in declaration
// order.
func (d Definition) RoleNames() []string {
	return slices.Clone(d.order)
}

// checkRole validates that r refers to a declared role, with a family index
// in range for fixed families.
func (d Definition) checkRole(r ids.RoleRef) error {
	decl, ok := d.decls[r.Name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRole, r)
	}
	if decl.family {
		if !r.IsFamilyMember() {
			return fmt.Errorf("%w: %s is a family; enroll as %s[i]", ErrUnknownRole, r.Name, r.Name)
		}
		if r.Index < 1 || (decl.size > 0 && r.Index > decl.size) {
			return fmt.Errorf("%w: %s index out of range", ErrUnknownRole, r)
		}
	} else if r.IsFamilyMember() {
		return fmt.Errorf("%w: %s is scalar, not a family", ErrUnknownRole, r.Name)
	}
	return nil
}

// closedRoles returns the statically-known role universe: scalar roles and
// the members of fixed-size families. Open-ended family members are
// excluded (their extent is per-performance).
func (d Definition) closedRoles() ids.RoleSet {
	s := ids.NewRoleSet()
	for _, name := range d.order {
		decl := d.decls[name]
		switch {
		case !decl.family:
			s.Add(ids.Role(name))
		case decl.size > 0:
			for i := 1; i <= decl.size; i++ {
				s.Add(ids.Member(name, i))
			}
		}
	}
	return s
}

// bodyFor returns the body of the role r; checkRole must have succeeded.
func (d Definition) bodyFor(r ids.RoleRef) RoleBody {
	return d.decls[r.Name].body
}

// Body returns the body of role r, validating the reference. Host-language
// adapters (internal/trans) use it to execute script bodies on their own
// substrates.
func (d Definition) Body(r ids.RoleRef) (RoleBody, error) {
	if err := d.checkRole(r); err != nil {
		return nil, err
	}
	return d.bodyFor(r), nil
}

// Roles returns the statically-known role universe (scalar roles and fixed
// family members) in a deterministic order. Open-ended family members are
// excluded.
func (d Definition) Roles() []ids.RoleRef {
	return d.closedRoles().Sorted()
}

// FamilyExtent returns the declared size of a fixed family, 0 for
// open-ended families and unknown names, and 0 for scalar roles.
func (d Definition) FamilyExtent(name string) int {
	decl, ok := d.decls[name]
	if !ok || !decl.family {
		return 0
	}
	return decl.size
}

// HasOpenFamilies reports whether the script declares any open-ended role
// family (which the Section IV translations do not support).
func (d Definition) HasOpenFamilies() bool {
	for _, decl := range d.decls {
		if decl.family && decl.size == 0 {
			return true
		}
	}
	return false
}
