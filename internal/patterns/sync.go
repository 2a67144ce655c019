package patterns

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// RoleParty is the barrier script's single role family.
const RoleParty = "party"

// Barrier builds an n-party synchronization script: the bodies are empty,
// so delayed initiation and delayed termination alone provide the barrier —
// the paper's observation that this policy pair "enforces global
// synchronization between large groups of processes (as a possible
// extension to CSP's synchronized communication between two processes)".
func Barrier(n int) core.Definition {
	return core.NewScript("barrier").
		Family(RoleParty, n, func(rc core.Ctx) error { return nil }).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// Await enrolls pid as barrier party i and returns when all n parties have
// arrived (and, by delayed termination, are released together).
func Await(ctx context.Context, in *core.Instance, pid ids.PID, i int) error {
	_, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Member(RoleParty, i)})
	return err
}

// Role names of the scatter/gather script.
const (
	RoleCoordinator = "coordinator"
	RoleWorker      = "worker"
)

// ScatterGather builds a coordinator/worker script: the coordinator
// scatters one work item to each of n workers, each worker applies its own
// function, and the coordinator gathers the results in whatever order they
// complete (a guarded Select over the workers — the kind of communication
// pattern the paper's introduction wants localized in one place).
//
// Coordinator data parameters: one work item per worker (Args[i-1] goes to
// worker i). Coordinator results: result i-1 is worker i's answer.
// Worker data parameters: Args[0] is a func(any) any to apply.
func ScatterGather(n int) core.Definition {
	// The gathering alternative — a result from any worker — is the same on
	// every trip and in every performance: one list per definition.
	results := make([]core.SelectBranch, n)
	for i := range results {
		results[i] = core.RecvTagFrom(ids.Member(RoleWorker, i+1), "result")
	}
	return core.NewScript("scatter_gather").
		Role(RoleCoordinator, func(rc core.Ctx) error {
			if rc.NumArgs() != n {
				return fmt.Errorf("scatter_gather: coordinator has %d items, want %d", rc.NumArgs(), n)
			}
			for i := 1; i <= n; i++ {
				if err := rc.SendTag(ids.Member(RoleWorker, i), "work", rc.Arg(i-1)); err != nil {
					return fmt.Errorf("scatter to worker[%d]: %w", i, err)
				}
			}
			for pending := n; pending > 0; pending-- {
				sel, err := rc.Select(results...)
				if err != nil {
					return fmt.Errorf("gather: %w", err)
				}
				rc.SetResult(sel.Peer.Index-1, sel.Val)
			}
			return nil
		}).
		Family(RoleWorker, n, func(rc core.Ctx) error {
			fn, ok := rc.Arg(0).(func(any) any)
			if !ok {
				return fmt.Errorf("scatter_gather: worker[%d] has no function argument", rc.Index())
			}
			item, err := rc.RecvTag(ids.Role(RoleCoordinator), "work")
			if err != nil {
				return fmt.Errorf("receive work: %w", err)
			}
			return rc.SendTag(ids.Role(RoleCoordinator), "result", fn(item))
		}).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// Scatter enrolls pid as the coordinator with the given work items and
// returns the gathered results (result i from worker i+1).
func Scatter(ctx context.Context, in *core.Instance, pid ids.PID, items ...any) ([]any, error) {
	res, err := in.Enroll(ctx, core.Enrollment{
		PID:  pid,
		Role: ids.Role(RoleCoordinator),
		Args: items,
	})
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// Work enrolls pid as worker i applying fn to its scattered item.
func Work(ctx context.Context, in *core.Instance, pid ids.PID, i int, fn func(any) any) error {
	_, err := in.Enroll(ctx, core.Enrollment{
		PID:  pid,
		Role: ids.Member(RoleWorker, i),
		Args: []any{fn},
	})
	return err
}
