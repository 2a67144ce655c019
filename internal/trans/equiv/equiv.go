// Package equiv is the one spelling of "this cast, on this host, for R
// rounds": the same script definition is performed on the native runtime
// (Native), the CSP translation (CSP), the Ada translation (Ada) and the
// monitor embedding (Monitors), and each run returns what every role
// observed — its out-parameters, round by round.
//
// The package's test is the repository-level statement of the paper's
// Section IV: the script construct can be added to each host language
// without changing what the enrolling processes observe. The experiment
// tables (internal/experiments E07, E09, E10), their benchmarks, cmd/figures
// (Figures 2–4, 7, 9–12) and examples/hostlang drive the same four functions.
package equiv

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/csp"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trans/adax"
	"github.com/scriptabs/goscript/internal/trans/cspx"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

// Part is one scripted participation: a role and its in-parameters.
type Part struct {
	Role ids.RoleRef
	// Args gives the in-parameters of each round (0-based); nil means none.
	Args func(round int) []any
}

func (p Part) args(round int) []any {
	if p.Args == nil {
		return nil
	}
	return p.Args(round)
}

// name is the process that plays p: a PID on the native runtime, a process
// name in the CSP translation's binding.
func (p Part) name() string { return "proc-" + p.Role.String() }

// Broadcast is the full cast of a broadcast script with n recipients
// (patterns' star, pipeline or tree): the sender transmits value(round).
func Broadcast(n int, value func(round int) any) []Part {
	cast := []Part{{
		Role: ids.Role(patterns.RoleSender),
		Args: func(round int) []any { return []any{value(round)} },
	}}
	for i := 1; i <= n; i++ {
		cast = append(cast, Part{Role: ids.Member(patterns.RoleRecipient, i)})
	}
	return cast
}

// Outs is what the roles observed: Outs[role][round] holds the role's
// out-parameters in that round.
type Outs map[ids.RoleRef][][]any

// perform has every part of the cast enroll `rounds` times through enroll,
// each from a goroutine of its own, and gathers the out-parameters. The
// first failure, or ctx's end, is returned at once: ctx is cancelled for the
// parts still enrolled, and parts a host cannot cancel (monitors have no
// cancellation) are left behind rather than waited for.
func perform(ctx context.Context, cast []Part, rounds int,
	enroll func(ctx context.Context, p Part, round int) ([]any, error)) (Outs, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type played struct {
		role ids.RoleRef
		outs [][]any
		err  error
	}
	done := make(chan played, len(cast))
	for _, p := range cast {
		go func() {
			res := played{role: p.Role}
			for r := 0; r < rounds && res.err == nil; r++ {
				var vals []any
				vals, res.err = enroll(ctx, p, r)
				res.outs = append(res.outs, vals)
			}
			done <- res
		}()
	}
	outs := make(Outs, len(cast))
	for range cast {
		select {
		case res := <-done:
			if res.err != nil {
				return nil, fmt.Errorf("role %s: %w", res.role, res.err)
			}
			outs[res.role] = res.outs
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return outs, nil
}

// Native performs the cast on the native runtime: one instance of def, one
// enrolling process per part.
func Native(ctx context.Context, def core.Definition, cast []Part, rounds int, opts ...core.Option) (Outs, error) {
	in := core.NewInstance(def, opts...)
	defer in.Close()
	return perform(ctx, cast, rounds, func(ctx context.Context, p Part, round int) ([]any, error) {
		res, err := in.Enroll(ctx, core.Enrollment{PID: ids.PID(p.name()), Role: p.Role, Args: p.args(round)})
		return res.Values, err
	})
}

// CSP performs the cast through the CSP translation: one process per part on
// a parallel command, every role bound to its process (the translation needs
// full naming), plus the supervisor p_s, which stops after `rounds`
// performances.
func CSP(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, *cspx.Host, error) {
	host, err := cspx.New(def)
	if err != nil {
		return nil, nil, err
	}
	binding := make(map[ids.RoleRef]string, len(cast))
	for _, p := range cast {
		binding[p.Role] = p.name()
	}
	played := make([][][]any, len(cast)) // each written by its own process, read after Run
	sys := csp.NewSystem()
	for i, p := range cast {
		sys.Process(binding[p.Role], func(proc *csp.Proc) error {
			for r := 0; r < rounds; r++ {
				vals, err := host.Enroll(proc, p.Role, binding, p.args(r))
				if err != nil {
					return err
				}
				played[i] = append(played[i], vals)
			}
			return nil
		})
	}
	host.AddSupervisor(sys, rounds)
	if err := sys.Run(ctx); err != nil {
		return nil, host, err
	}
	outs := make(Outs, len(cast))
	for i, p := range cast {
		outs[p.Role] = played[i]
	}
	return outs, host, nil
}

// Ada performs the cast through the Ada translation: the m+1 tasks are
// started, every part makes its start/stop entry-call pairs, and the tasks
// are shut down.
func Ada(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, *adax.Host, error) {
	host, err := adax.New(def)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // a failed cast must not leave the role tasks running
	if err := host.Start(ctx); err != nil {
		return nil, host, err
	}
	outs, err := perform(ctx, cast, rounds, func(ctx context.Context, p Part, round int) ([]any, error) {
		return host.Enroll(ctx, p.Role, p.args(round))
	})
	if err != nil {
		return nil, host, err
	}
	return outs, host, host.Shutdown()
}

// Monitors performs the cast through the monitor embedding, packaged as opts
// say (one monitor per mailbox unless monx.WithSharedMonitor).
func Monitors(ctx context.Context, def core.Definition, cast []Part, rounds int, opts ...monx.Option) (Outs, *monx.Host, error) {
	host, err := monx.New(def, opts...)
	if err != nil {
		return nil, nil, err
	}
	outs, err := perform(ctx, cast, rounds, func(_ context.Context, p Part, round int) ([]any, error) {
		return host.Enroll(p.Role, p.args(round))
	})
	return outs, host, err
}
