package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/dist"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/trace"
)

// E11BroadcastStrategies tabulates the virtual-time comparison of the three
// broadcast strategies a script body can hide (Section II).
func E11BroadcastStrategies(ctx context.Context) Table {
	const (
		id    = "E11"
		title = "Section II — broadcast strategies (star / tree / pipeline)"
		claim = "the body of the script could hide the various broadcast strategies; see [12,14] for their relative merits"
	)
	t := Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"N", "items", "star makespan", "tree makespan", "pipeline makespan", "star residence", "pipeline residence"},
	}
	shapeOK := true
	// One item to N recipients, then the streaming case (64 items to 16).
	for _, c := range []struct{ n, items int }{{4, 1}, {16, 1}, {64, 1}, {256, 1}, {1024, 1}, {16, 64}} {
		star, tree, pipe := BroadcastModel("star", c.n, c.items), BroadcastModel("tree", c.n, c.items), BroadcastModel("pipeline", c.n, c.items)
		if c.items == 1 && c.n >= 64 && tree.Makespan >= star.Makespan {
			shapeOK = false // the tree must win for large N
		}
		if c.items > 1 && pipe.Makespan >= star.Makespan {
			shapeOK = false // the pipeline must overtake the star on a stream
		}
		t.Rows = append(t.Rows, []string{
			itoa(c.n), itoa(c.items),
			fmt.Sprintf("%.0f", star.Makespan),
			fmt.Sprintf("%.0f", tree.Makespan),
			fmt.Sprintf("%.0f", pipe.Makespan),
			fmt.Sprintf("%.0f", star.AvgResidence),
			fmt.Sprintf("%.0f", pipe.AvgResidence),
		})
	}
	t.Verdict = pass(shapeOK) + " (tree wins at scale; pipeline wins streaming and minimizes residence)"
	return t
}

// E12OpenEnded exercises the Section V extensions: an open-ended role family
// whose extent varies from one performance of an instance to the next.
func E12OpenEnded(ctx context.Context) Table {
	const (
		id    = "E12"
		title = "Section V — open-ended scripts and nested enrollment"
		claim = "dynamic arrays of roles … would allow different instances of a script to take place with somewhat different role structures"
	)
	in := core.NewInstance(Gather())
	defer in.Close()

	t := Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"performance", "family extent", "gathered sum"},
	}
	ok := true
	for perf, n := range []int{2, 8, 32} {
		// The hub is the whole critical set: it must not offer before the n
		// workers of this performance have, or it performs without them.
		workers := perfbench.Keep(ctx, in.Enroll, GatherWorkers(n))
		err := await(workers.Context(), func() bool { return in.PendingOffers() >= n })
		var res core.Result
		if err == nil {
			res, err = workers.Enroll(GatherHub)
		}
		if stopErr := workers.Stop(); stopErr != nil {
			err = stopErr
		}
		if err != nil {
			return errTable(id, title, claim, err)
		}
		ok = ok && res.Values[0] == n && res.Values[1] == n*(n+1)/2
		t.Rows = append(t.Rows, []string{itoa(perf + 1), fmt.Sprint(res.Values[0]), fmt.Sprint(res.Values[1])})
	}
	t.Verdict = pass(ok) + " (one instance, three performances with extents 2, 8, 32)"
	return t
}

// E13DistributedEnrollment compares the centralized supervisor shape with
// the decentralized ring-token and combining-tree protocols for multiway
// enrollment.
func E13DistributedEnrollment(ctx context.Context) Table {
	return e13(ctx, NewSynchronizer)
}

// e13 runs the three protocols newSync builds and judges what EXPERIMENTS.md
// claims of them: the messages a round costs (2n to a coordinator and back,
// 2n−1 round a ring in steady state, 2(n−1) up and down a tree), and from
// n = 8 up a coordinator that carries strictly more than any ring or tree
// node does.
func e13(ctx context.Context, newSync func(kind string, n int) dist.Synchronizer) Table {
	const (
		id    = "E13"
		title = "Section IV — centralized vs distributed multiway synchronization"
		claim = "a major direction of future research is to discover distributed algorithms to achieve such multiple synchronization"
	)
	const rounds = 20
	t := Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"n", "protocol", "msgs/round", "expected", "max node load"},
	}
	ok := true
	for _, n := range []int{2, 8, 32} {
		load := map[string]int{}
		for _, p := range []struct {
			kind     string
			perRound int
		}{{"central", 2 * n}, {"ring", 2*n - 1}, {"tree", 2 * (n - 1)}} {
			s := newSync(p.kind, n)
			err := SyncRounds(ctx, s, n, rounds)
			st := s.Stats()
			s.Close()
			if err != nil {
				return errTable(id, title, claim, err)
			}
			// The ring's last token pass, back to the node that began the
			// release lap, follows the last release: it may not have been
			// counted yet when the last enroller returns. Nothing else may
			// be missing, and nothing may be extra.
			missing := p.perRound*rounds - st.Messages
			ok = ok && st.Rounds == rounds && (missing == 0 || missing == 1 && p.kind == "ring")
			load[p.kind] = st.MaxNodeLoad
			t.Rows = append(t.Rows, []string{
				itoa(n), p.kind, fmt.Sprintf("%.1f", st.PerRound()), itoa(p.perRound), itoa(st.MaxNodeLoad),
			})
		}
		if n >= 8 {
			ok = ok && load["central"] > load["ring"] && load["central"] > load["tree"]
		}
	}
	t.Verdict = pass(ok) + " (ring and tree bound per-node load; central minimizes serial hops; tree minimizes hops among the decentralized ones)"
	return t
}

// serviceOrder reads the trace of a contended role: the most offers that
// arrived later and were served sooner than any one pending offer (0 is
// service in order of arrival), and the longest run of performances between
// two services of one process. Only the first is a property of the policy;
// the second also counts the time a process took to offer again.
func serviceOrder(log *trace.Log) (overtakes, maxGap int) {
	arrived := map[ids.PID]int{} // the pending offers, by Seq of arrival
	passed := map[ids.PID]int{}  // later offers served ahead of each
	lastServed := map[ids.PID]int{}
	served := 0
	for _, e := range log.Events() {
		switch e.Kind {
		case trace.KindEnroll:
			arrived[e.PID] = e.Seq
		case trace.KindStart:
			served++
			if prev, ok := lastServed[e.PID]; ok {
				maxGap = max(maxGap, served-prev)
			}
			lastServed[e.PID] = served
			for pid, seq := range arrived {
				if seq < arrived[e.PID] {
					passed[pid]++
					overtakes = max(overtakes, passed[pid])
				}
			}
			delete(arrived, e.PID)
			delete(passed, e.PID)
		}
	}
	return overtakes, maxGap
}

// E14Fairness contrasts FIFO (Ada) and Arbitrary (CSP) contention policies
// under repeated enrollment into one role.
func E14Fairness(ctx context.Context) Table {
	const (
		id    = "E14"
		title = "Section II — fairness of repeated enrollments"
		claim = "in CSP no fairness is assumed; in Ada, repeated enrollments are serviced in order of arrival"
	)
	const contenders, rounds = 6, 40

	run := func(fairness match.Fairness) (overtakes, maxGap int, err error) {
		ready := make(chan struct{})
		open := sync.OnceFunc(func() { close(ready) })
		defer open()
		var log trace.Log
		// The starter holds the first performance open until every contender
		// is pending, so the contention is full from the start.
		hold := heldUntil(ready)
		in := core.NewInstance(perfbench.SlotScript(func(rc core.Ctx) error {
			if rc.PID() != "starter" {
				return nil
			}
			return hold(rc)
		}), core.WithFairness(fairness, 42), core.WithTracer(&log))
		defer in.Close()

		only := ids.Role("only")
		starterDone := make(chan error, 1)
		go func() {
			_, err := in.Enroll(ctx, core.Enrollment{PID: "starter", Role: only})
			starterDone <- err
		}()
		// The starter must own performance 1 (and hold it) before any
		// contender can be served.
		if err := await(ctx, func() bool { return in.Performances() >= 1 }); err != nil {
			return 0, 0, err
		}
		served := make(chan error, 1)
		go func() {
			served <- inParallel(ctx, contenders, rounds, func(ctx context.Context, c, _ int) error {
				_, err := in.Enroll(ctx, core.Enrollment{PID: ids.PID(fmt.Sprintf("P%d", c)), Role: only})
				return err
			})
		}()
		err = await(ctx, func() bool { return in.PendingOffers() >= contenders })
		open()
		for _, done := range []chan error{starterDone, served} {
			if e := <-done; err == nil {
				err = e
			}
		}
		overtakes, maxGap = serviceOrder(&log)
		return overtakes, maxGap, err
	}

	fifoPassed, fifoGap, err := run(match.FIFO)
	if err != nil {
		return errTable(id, title, claim, err)
	}
	arbPassed, arbGap, err := run(match.Arbitrary)
	if err != nil {
		return errTable(id, title, claim, err)
	}
	return Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"policy", "contenders", "later offers served first (max)", "max service gap (performances)"},
		Rows: [][]string{
			{"FIFO (Ada)", itoa(contenders), itoa(fifoPassed), itoa(fifoGap)},
			{"Arbitrary (CSP)", itoa(contenders), itoa(arbPassed), itoa(arbGap)},
		},
		Verdict: pass(fifoPassed == 0 && arbPassed > 0) + " (FIFO never serves a later offer ahead of a pending one; Arbitrary does; the gap also counts how long a process took to offer again)",
	}
}
