package experiments

// Fixtures: each figure's program, written once. A fixture builds the
// program and runs it, returning what the roles observed and every
// participant's error; every wait in it ends with the context. Three drivers
// share them: BenchmarkE01–E14 (bench_test.go) run a fixture b.N times, the
// tables of this package run it a fixed number of times and check, and
// cmd/figures runs it once and narrates. The programs that are "a cast on a
// host" are internal/trans/equiv's; the resident-enroller loop is
// internal/perfbench's Residents.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/ada"
	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/csp"
	"github.com/scriptabs/goscript/internal/dist"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/perfbench"
	"github.com/scriptabs/goscript/internal/sim"
	"github.com/scriptabs/goscript/internal/trace"
	"github.com/scriptabs/goscript/internal/trans/equiv"
)

// heldUntil is a role body that stays in its performance until gate is
// closed, or its enroller's context ends.
func heldUntil(gate <-chan struct{}) core.RoleBody {
	return func(rc core.Ctx) error {
		select {
		case <-gate:
			return nil
		case <-rc.Context().Done():
			return rc.Context().Err()
		}
	}
}

// Figure1Script is Figure 1's script s: roles p, q, r under immediate
// initiation and termination. p returns at once; q and r hold the
// performance open until gate is closed (a closed gate makes all three
// bodies empty, which is what BenchmarkE01 times).
func Figure1Script(gate <-chan struct{}) core.Definition {
	return core.NewScript("s").
		Role("p", func(core.Ctx) error { return nil }).
		Role("q", heldUntil(gate)).
		Role("r", heldUntil(gate)).
		Initiation(core.ImmediateInitiation).
		Termination(core.ImmediateTermination).
		MustBuild()
}

// Figure1 replays the figure's timeline: A, B and C fill p, q and r; A
// finishes; D offers p while B and C are still in their roles; then B and C
// are let go. It returns the trace and whether D was served before they were.
func Figure1(ctx context.Context) (log *trace.Log, dEarly bool, err error) {
	gate := make(chan struct{})
	open := sync.OnceFunc(func() { close(gate) })
	defer open()
	log = &trace.Log{}
	in := core.NewInstance(Figure1Script(gate), core.WithTracer(log))
	defer in.Close()

	enroll := func(pid ids.PID, role string) <-chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := in.Enroll(ctx, core.Enrollment{PID: pid, Role: ids.Role(role)})
			ch <- err
		}()
		return ch
	}
	chA, chB, chC := enroll("A", "p"), enroll("B", "q"), enroll("C", "r")
	if err := <-chA; err != nil {
		return log, false, err
	}
	chD := enroll("D", "p")
	time.Sleep(20 * time.Millisecond) // D is now waiting, as the figure shows
	waitFor := []<-chan error{chB, chC, chD}
	select {
	case err := <-chD:
		if err != nil {
			return log, false, err
		}
		dEarly, waitFor = true, waitFor[:2]
	default:
	}
	open()
	for _, ch := range waitFor {
		if err := <-ch; err != nil {
			return log, dEarly, err
		}
	}
	return log, dEarly, nil
}

// Figure2 replays Figure 2 on the star broadcast: A enrolls as the sender
// twice, transmitting x and then v; B enrolls as recipient[1] twice, binding
// u and then y; another process competes as recipient[2].
func Figure2(ctx context.Context) (u, y any, err error) {
	sent := []any{"x", "v"}
	cast := equiv.Broadcast(2, func(round int) any { return sent[round] })
	outs, err := equiv.Native(ctx, patterns.StarBroadcast(2), cast, len(sent))
	if err != nil {
		return nil, nil, err
	}
	b := outs[perfbench.Recipient(1)]
	return b[0][0], b[1][0], nil
}

// Residence is the mean time a role spends in the script, on the
// performance's own clock: the number of the performance's trace events
// between the role's start and its release, averaged over every role of
// every performance in the log. A delayed-termination script releases
// nobody before the performance's last event; an immediate one releases a
// role the moment its body returns — by construction, at every cast size,
// which no stopwatch around Enroll can say of a 2-processor box.
func Residence(log *trace.Log) float64 {
	type key struct {
		perf int
		role ids.RoleRef
	}
	clock := map[int]int{}
	started := map[key]int{}
	total, roles := 0, 0
	for _, e := range log.Events() {
		if e.Performance == 0 {
			continue
		}
		clock[e.Performance]++
		k := key{e.Performance, e.Role}
		switch e.Kind {
		case trace.KindStart:
			started[k] = clock[e.Performance]
		case trace.KindRelease:
			total += clock[e.Performance] - started[k]
			roles++
		}
	}
	if roles == 0 {
		return 0
	}
	return float64(total) / float64(roles)
}

// LockService is Figure 5's database: an instance of LockManager(k, strat)
// with its k managers resident, each over a lock table of its own. Clients
// call patterns.RequestLock and ReleaseLock on In under Context.
type LockService struct {
	In *core.Instance
	*perfbench.Residents
}

// StartLockService starts the k managers.
func StartLockService(ctx context.Context, k int, strat patterns.LockStrategy) *LockService {
	in := core.NewInstance(patterns.LockManager(k, strat))
	managers := perfbench.Cast(k, "M", func(i int) ids.RoleRef { return ids.Member(patterns.RoleManager, i) })
	for i := range managers {
		managers[i].Args = []any{strat.NewTable()}
	}
	return &LockService{In: in, Residents: perfbench.Keep(ctx, in.Enroll, managers)}
}

// Stop ends the managers and closes the instance; it returns the failure
// that ended a manager early, if one did.
func (s *LockService) Stop() error {
	err := s.Residents.Stop()
	s.In.Close()
	return err
}

// CSPBroadcast runs Figure 6 on the CSP substrate: the transmitter's
// repetitive command offers x to each of the n recipients it has not yet
// served ("¬sent[k]; recipient[k]!x"), and each recipient does
// transmitter?y. It returns y of recipient[1..n].
func CSPBroadcast(ctx context.Context, n int, x any) ([]any, error) {
	received := make([]any, n) // each written by its own process, read after Run
	sys := csp.NewSystem().
		Process("transmitter", func(p *csp.Proc) error {
			sent := make([]bool, n+1)
			return p.Rep(func() []csp.Guard {
				guards := make([]csp.Guard, 0, n)
				for k := 1; k <= n; k++ {
					guards = append(guards, csp.OnSend(csp.Name("recipient", k), "", x,
						func(any) error { sent[k] = true; return nil }).When(!sent[k]))
				}
				return guards
			})
		}).
		ProcessArray("recipient", n, func(p *csp.Proc) (err error) {
			received[p.Index()-1], err = p.Recv("transmitter")
			return err
		})
	return received, sys.Run(ctx)
}

// Served is one rendezvous of Figure 8: which recipient task called, and
// what the call returned to it.
type Served struct {
	Recipient int
	Got       any
}

// AdaBroadcast runs Figure 8 on the Ada substrate, the reverse broadcast:
// the n recipient tasks call the sender's receive entry, which the sender
// accepts n times, answering x. It returns the calls in the order served.
func AdaBroadcast(ctx context.Context, n int, x any) ([]Served, error) {
	p := ada.NewProgram()
	sender := p.Task("sender", nil)
	receive := sender.Entry("receive")
	sender.SetBody(func(tk *ada.Task) error {
		for completed := 0; completed < n; completed++ {
			if err := tk.Accept(receive, func([]any) ([]any, error) { return []any{x}, nil }); err != nil {
				return err
			}
		}
		return nil
	})
	var mu sync.Mutex
	var order []Served
	for i := 1; i <= n; i++ {
		p.Task(fmt.Sprintf("r%d", i), func(tk *ada.Task) error {
			outs, err := receive.Call(tk.Context())
			if err != nil {
				return err
			}
			mu.Lock()
			order = append(order, Served{Recipient: i, Got: outs[0]})
			mu.Unlock()
			return nil
		})
	}
	err := p.Run(ctx)
	return order, err // order is read after Run, not beside it
}

// PairExchange is E10's workload: left[i] sends msgs values to right[i],
// which reports their sum. The pairs are independent, so nothing but the
// packaging of the mailboxes can make one wait for another.
func PairExchange(pairs, msgs int) (core.Definition, []equiv.Part) {
	def := core.NewScript("pair_exchange").
		Family("left", pairs, func(rc core.Ctx) error {
			for m := 0; m < msgs; m++ {
				if err := rc.Send(ids.Member("right", rc.Index()), m); err != nil {
					return err
				}
			}
			return nil
		}).
		Family("right", pairs, func(rc core.Ctx) error {
			sum := 0
			for m := 0; m < msgs; m++ {
				v, err := rc.Recv(ids.Member("left", rc.Index()))
				if err != nil {
					return err
				}
				sum += v.(int)
			}
			rc.SetResult(0, sum)
			return nil
		}).
		MustBuild()
	var cast []equiv.Part
	for i := 1; i <= pairs; i++ {
		cast = append(cast, equiv.Part{Role: ids.Member("left", i)}, equiv.Part{Role: ids.Member("right", i)})
	}
	return def, cast
}

// BroadcastModel runs E11's discrete-event model (send overhead 1, link
// latency 5, tree fanout 2) of one strategy: "star", "tree" or "pipeline".
func BroadcastModel(strategy string, recipients, items int) sim.Result {
	p := sim.Params{Recipients: recipients, Items: items, SendOverhead: 1, Latency: 5, Fanout: 2}
	switch strategy {
	case "star":
		return sim.Star(p)
	case "tree":
		return sim.Tree(p)
	default:
		return sim.Pipeline(p)
	}
}

// Gather is E12's open-ended script: a hub and an open family w of workers.
// Each worker sends its index; the hub receives from every worker that made
// it into the performance (the paper's Terminated predicate skips the
// absent) and reports how many there were and the sum.
func Gather() core.Definition {
	return core.NewScript("gather").
		Role("hub", func(rc core.Ctx) error {
			present, sum := 0, 0
			for i := 1; i <= rc.FamilySize("w"); i++ {
				m := ids.Member("w", i)
				if rc.Terminated(m) {
					continue
				}
				v, err := rc.Recv(m)
				if err != nil {
					return err
				}
				present++
				sum += v.(int)
			}
			rc.SetResult(0, present)
			rc.SetResult(1, sum)
			return nil
		}).
		OpenFamily("w", func(rc core.Ctx) error {
			return rc.Send(ids.Role("hub"), rc.Index())
		}).
		CriticalSet(ids.Role("hub")).
		MustBuild()
}

// GatherWorkers is the resident cast of Gather at extent n.
func GatherWorkers(n int) []core.Enrollment {
	return perfbench.Cast(n, "W", func(i int) ids.RoleRef { return ids.Member("w", i) })
}

// GatherHub is the foreground enrollment among them.
var GatherHub = core.Enrollment{PID: "H", Role: ids.Role("hub")}

// await polls cond until it holds or ctx ends. The conditions waited for are
// scheduler states with no event to wait on instead (so many offers pending,
// so many performances begun).
func await(ctx context.Context, cond func() bool) error {
	for !cond() {
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// inParallel runs n processes, numbered from 1, each making `rounds` calls
// of step. One that fails ends the others — they see ctx cancelled — and its
// failure is the one returned.
func inParallel(ctx context.Context, n, rounds int, step func(ctx context.Context, i, round int) error) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := step(ctx, i, r); err != nil {
					cancel(fmt.Errorf("process %d: %w", i, err)) // the first one sticks
					return
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// NewSynchronizer builds one of E13's multiway synchronizers over n nodes:
// "central", "ring" or "tree".
func NewSynchronizer(kind string, n int) dist.Synchronizer {
	switch kind {
	case "central":
		return dist.NewCentral(n)
	case "ring":
		return dist.NewRing(n)
	default:
		return dist.NewTree(n)
	}
}

// SyncRounds has all n nodes enroll in s `rounds` times.
func SyncRounds(ctx context.Context, s dist.Synchronizer, n, rounds int) error {
	return inParallel(ctx, n, rounds, func(ctx context.Context, i, _ int) error {
		_, err := s.Enroll(ctx, i)
		return err
	})
}

// SlotScript is E14's script: one role, "only", that every contender wants
// (nil body: an empty one).
func SlotScript(body core.RoleBody) core.Definition {
	if body == nil {
		body = func(core.Ctx) error { return nil }
	}
	return core.NewScript("slot").Role("only", body).MustBuild()
}
