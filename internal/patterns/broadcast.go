// Package patterns is the script library of this repository: the paper's
// example scripts (star broadcast, pipeline broadcast, the database lock
// manager) and the further patterns its Sections I–II motivate (spanning-
// tree broadcast, manager-set membership change, barrier, scatter/gather,
// and a bounded-buffer "buffering regime").
//
// Each pattern provides a core.Definition constructor plus typed enrollment
// helpers. The helpers use Go generics, following the paper's principle
// that "a script is as generic as its host programming language allows".
//
// A role body that loops on a guarded alternative builds the alternative
// once and passes it with `...`: rc.Select(alt...). Which pairings an
// alternative admits is static data of the script, while a list written out
// in the call is allocated on every trip round the loop (it escapes through
// the core.Ctx interface). A list that never changes is built when the
// definition is (managerBody, the buffer's consumer, scatter/gather's
// gathering) and shared, read-only, by every performance; one whose guards or
// send value change is built once per body and rewritten in place
// (alt[i] = alt[i].When(cond)) before each Select (the buffer role, the
// guarded lock clients). Select reads the list and keeps nothing of it.
package patterns

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// Role names shared by the broadcast scripts.
const (
	RoleSender    = "sender"
	RoleRecipient = "recipient"
)

// StarBroadcast is the paper's Figure 3: a fully synchronized broadcast
// with one sender and n recipients, delayed initiation and termination.
// The sender transmits directly to each recipient in index order; because
// initiation is delayed, "the sender is never blocked while waiting for a
// recipient".
func StarBroadcast(n int) core.Definition {
	return core.NewScript("star_broadcast").
		Role(RoleSender, func(rc core.Ctx) error {
			// One vectorized fan-out: the offers to all n recipients overlap
			// in the fabric instead of committing as n serial round trips.
			tos := make([]ids.RoleRef, n)
			for i := 1; i <= n; i++ {
				tos[i-1] = ids.Member(RoleRecipient, i)
			}
			if err := rc.SendAll(tos, rc.Arg(0)); err != nil {
				return fmt.Errorf("broadcast to recipients: %w", err)
			}
			return nil
		}).
		Family(RoleRecipient, n, func(rc core.Ctx) error {
			v, err := rc.Recv(ids.Role(RoleSender))
			if err != nil {
				return fmt.Errorf("receive from sender: %w", err)
			}
			rc.SetResult(0, v)
			return nil
		}).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// PipelineBroadcast is the paper's Figure 4: the sender hands the value to
// recipient 1 and is finished; each recipient passes it to its successor.
// Immediate initiation and termination let processes "spend much less time
// in the script" than Figure 3 — at the price that a role blocks at its
// send if the neighbouring role has not yet arrived.
func PipelineBroadcast(n int) core.Definition {
	return core.NewScript("pipeline_broadcast").
		Role(RoleSender, func(rc core.Ctx) error {
			return rc.Send(ids.Member(RoleRecipient, 1), rc.Arg(0))
		}).
		Family(RoleRecipient, n, func(rc core.Ctx) error {
			from := ids.Role(RoleSender)
			if i := rc.Index(); i > 1 {
				from = ids.Member(RoleRecipient, i-1)
			}
			v, err := rc.Recv(from)
			if err != nil {
				return fmt.Errorf("receive from %s: %w", from, err)
			}
			rc.SetResult(0, v)
			if i := rc.Index(); i < n {
				if err := rc.Send(ids.Member(RoleRecipient, i+1), v); err != nil {
					return fmt.Errorf("forward to recipient[%d]: %w", i+1, err)
				}
			}
			return nil
		}).
		Initiation(core.ImmediateInitiation).
		Termination(core.ImmediateTermination).
		MustBuild()
}

// TreeBroadcast is the spanning-tree strategy of Section II: "a wave of
// transmissions, where every role, upon receiving x from its parent role,
// transmits it to every one of its descendant roles". Recipients form a
// fanout-ary heap: recipient 1 is the root (fed by the sender), and the
// children of recipient j are fanout·(j−1)+2 … fanout·(j−1)+fanout+1.
func TreeBroadcast(n, fanout int) core.Definition {
	if fanout < 1 {
		fanout = 2
	}
	return core.NewScript("tree_broadcast").
		Role(RoleSender, func(rc core.Ctx) error {
			return rc.Send(ids.Member(RoleRecipient, 1), rc.Arg(0))
		}).
		Family(RoleRecipient, n, func(rc core.Ctx) error {
			i := rc.Index()
			from := ids.Role(RoleSender)
			if i > 1 {
				from = ids.Member(RoleRecipient, (i-2)/fanout+1)
			}
			v, err := rc.Recv(from)
			if err != nil {
				return fmt.Errorf("receive from %s: %w", from, err)
			}
			rc.SetResult(0, v)
			firstChild := fanout*(i-1) + 2
			var children []ids.RoleRef
			for c := firstChild; c < firstChild+fanout && c <= n; c++ {
				children = append(children, ids.Member(RoleRecipient, c))
			}
			if err := rc.SendAll(children, v); err != nil {
				return fmt.Errorf("forward to children of recipient[%d]: %w", i, err)
			}
			return nil
		}).
		Initiation(core.DelayedInitiation).
		Termination(core.DelayedTermination).
		MustBuild()
}

// EnrollSender enrolls pid as the sender of a broadcast script instance,
// transmitting x.
func EnrollSender[T any](ctx context.Context, in *core.Instance, pid ids.PID, x T) error {
	_, err := in.Enroll(ctx, core.Enrollment{
		PID:  pid,
		Role: ids.Role(RoleSender),
		Args: []any{x},
	})
	return err
}

// EnrollRecipient enrolls pid as recipient i of a broadcast script instance
// and returns the received value.
func EnrollRecipient[T any](ctx context.Context, in *core.Instance, pid ids.PID, i int) (T, error) {
	var zero T
	res, err := in.Enroll(ctx, core.Enrollment{
		PID:  pid,
		Role: ids.Member(RoleRecipient, i),
	})
	if err != nil {
		return zero, err
	}
	if len(res.Values) == 0 {
		return zero, fmt.Errorf("broadcast: recipient[%d] produced no value", i)
	}
	v, ok := res.Values[0].(T)
	if !ok {
		return zero, fmt.Errorf("broadcast: recipient[%d] value has type %T, not %T", i, res.Values[0], zero)
	}
	return v, nil
}
