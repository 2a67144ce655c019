package patterns

import (
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// LockManagerGuarded builds the same script as LockManager, but with the
// reader/writer bodies transcribed *literally* from Figures 5b and 5c:
// guarded DO-OD loops whose guards are output commands, so lock requests go
// to whichever manager is ready first — "SEND lock(data, id) TO manager[i]"
// under the boolean part "(who = []) AND ~done[i]". LockManager's clients
// poll managers in index order instead; the two are observationally
// equivalent (asserted in tests), which is itself a point of the paper:
// the script hides the strategy from the enrolling processes.
func LockManagerGuarded(k int, strat LockStrategy) core.Definition {
	return lockScript("lock_manager_guarded_"+strat.Name, k, strat, guardedClientBody)
}

// guardedClientBody is Figure 5b/5c's client: a repetitive guarded command
// over the managers with output guards, re-evaluated each iteration.
func guardedClientBody(k int, quorum func(int) int) core.RoleBody {
	return func(rc core.Ctx) error {
		msg := rc.Arg(0) // the request boxed once, by the enrollment: see clientBody
		req, ok := msg.(Request)
		if !ok {
			return fmt.Errorf("lock client: bad request argument %T", msg)
		}
		if req.Release {
			// "DO ~done[i]; SEND release(data, id) TO manager[i] →
			//     done[i] := true OD"
			return guardedBroadcast(rc, k, tagRelease, msg, func(int) bool { return true })
		}
		need := quorum(k)
		// "(who = []) AND ~done[i]": one output guard per manager, kept for the
		// whole loop; a manager that has answered has its guard turned off.
		asking := sendToManagers(k, tagLock, msg, func(int) bool { return true })
		var who []int
		asked := 0
		for {
			if len(who) >= need {
				break // quorum met
			}
			if len(who)+(k-asked) < need {
				break // unreachable, stop asking (the writer's early exit)
			}
			sel, err := rc.Select(asking...)
			if err != nil {
				return fmt.Errorf("guarded lock send: %w", err)
			}
			i := sel.Peer.Index
			reply, err := rc.RecvTag(sel.Peer, tagReply)
			if err != nil {
				return fmt.Errorf("reply from manager[%d]: %w", i, err)
			}
			asking[sel.Index] = asking[sel.Index].When(false)
			asked++
			if granted, _ := reply.(bool); granted {
				who = append(who, i)
			}
		}
		if len(who) >= need {
			rc.SetResult(0, true)
			return nil
		}
		// "IF who <> [] … DO i IN who; SEND release(data,id) TO manager[i]"
		granted := make(map[int]bool, len(who))
		for _, i := range who {
			granted[i] = true
		}
		if err := guardedBroadcast(rc, k, tagRelease, msg, func(i int) bool { return granted[i] }); err != nil {
			return err
		}
		rc.SetResult(0, false)
		return nil
	}
}

// sendToManagers builds the alternative "SEND tag(msg) TO manager[i]" over
// all k managers, branch i-1 enabled when include(i); msg is the boxed
// Request, the same value in every branch. The caller keeps the list for its
// whole DO-OD loop and turns a guard off as its send commits.
func sendToManagers(k int, tag string, msg any, include func(int) bool) []core.SelectBranch {
	alt := make([]core.SelectBranch, k)
	for i := 1; i <= k; i++ {
		alt[i-1] = core.SendTagTo(ids.Member(RoleManager, i), tag, msg).When(include(i))
	}
	return alt
}

// guardedBroadcast sends (tag, msg) once to every manager selected by
// include, in nondeterministic (ready-first) order via output guards.
func guardedBroadcast(rc core.Ctx, k int, tag string, msg any, include func(int) bool) error {
	alt := sendToManagers(k, tag, msg, include)
	remaining := 0
	for _, b := range alt {
		if b.Enabled() {
			remaining++
		}
	}
	for ; remaining > 0; remaining-- {
		sel, err := rc.Select(alt...)
		if err != nil {
			return fmt.Errorf("guarded %s send: %w", tag, err)
		}
		alt[sel.Index] = alt[sel.Index].When(false)
	}
	return nil
}
