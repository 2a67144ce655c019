package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/trace"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// starBroadcastDef builds the paper's Figure 3 script: one sender, n
// recipients, fully synchronized (delayed/delayed).
func starBroadcastDef(t *testing.T, n int, init Initiation, term Termination) Definition {
	t.Helper()
	def, err := NewScript("broadcast").
		Role("sender", func(rc Ctx) error {
			for i := 1; i <= n; i++ {
				if err := rc.Send(ids.Member("recipient", i), rc.Arg(0)); err != nil {
					return err
				}
			}
			return nil
		}).
		Family("recipient", n, func(rc Ctx) error {
			v, err := rc.Recv(ids.Role("sender"))
			if err != nil {
				return err
			}
			rc.SetResult(0, v)
			return nil
		}).
		Initiation(init).
		Termination(term).
		Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return def
}

type enrollOut struct {
	res Result
	err error
}

// enrollAsync runs an enrollment in its own goroutine.
func enrollAsync(ctx context.Context, in *Instance, e Enrollment) <-chan enrollOut {
	ch := make(chan enrollOut, 1)
	go func() {
		res, err := in.Enroll(ctx, e)
		ch <- enrollOut{res, err}
	}()
	return ch
}

func TestStarBroadcastDelivers(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 3, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()

	var chans []<-chan enrollOut
	for i := 1; i <= 3; i++ {
		chans = append(chans, enrollAsync(ctx, in, Enrollment{
			PID: ids.PID(fmt.Sprintf("R%d", i)), Role: ids.Member("recipient", i),
		}))
	}
	sres, serr := in.Enroll(ctx, Enrollment{PID: "T", Role: ids.Role("sender"), Args: []any{42}})
	if serr != nil {
		t.Fatalf("sender: %v", serr)
	}
	if sres.Performance != 1 {
		t.Errorf("sender performance = %d, want 1", sres.Performance)
	}
	for i, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("recipient %d: %v", i+1, out.err)
		}
		if len(out.res.Values) != 1 || out.res.Values[0] != 42 {
			t.Errorf("recipient %d values = %v, want [42]", i+1, out.res.Values)
		}
	}
}

func TestDelayedInitiationWaitsForAllRoles(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 2, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()

	ch1 := enrollAsync(ctx, in, Enrollment{PID: "R1", Role: ids.Member("recipient", 1)})
	chS := enrollAsync(ctx, in, Enrollment{PID: "T", Role: ids.Role("sender"), Args: []any{1}})
	time.Sleep(30 * time.Millisecond)
	if got := in.Performances(); got != 0 {
		t.Fatalf("performance started with missing role: %d", got)
	}
	select {
	case out := <-ch1:
		t.Fatalf("recipient released early: %+v", out)
	case out := <-chS:
		t.Fatalf("sender released early: %+v", out)
	default:
	}
	ch2 := enrollAsync(ctx, in, Enrollment{PID: "R2", Role: ids.Member("recipient", 2)})
	for _, ch := range []<-chan enrollOut{ch1, chS, ch2} {
		if out := <-ch; out.err != nil {
			t.Fatalf("enrollment failed: %v", out.err)
		}
	}
	if got := in.Performances(); got != 1 {
		t.Fatalf("performances = %d, want 1", got)
	}
}

// TestFigure1SuccessivePerformances reproduces the paper's Figure 1:
// processes A, B, C fill roles p, q, r; D attempts to enroll as p; even
// after A finishes, D must wait until B and C finish too.
func TestFigure1SuccessivePerformances(t *testing.T) {
	ctx := testCtx(t)
	gateB := make(chan struct{})
	def, err := NewScript("fig1").
		Role("p", func(rc Ctx) error { return nil }).
		Role("q", func(rc Ctx) error { <-gateB; return nil }).
		Role("r", func(rc Ctx) error { <-gateB; return nil }).
		Initiation(ImmediateInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Log
	in := NewInstance(def, WithTracer(&log))
	defer in.Close()

	chA := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("p")})
	chB := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("q")})
	chC := enrollAsync(ctx, in, Enrollment{PID: "C", Role: ids.Role("r")})

	// A finishes its role immediately (immediate termination frees it).
	if out := <-chA; out.err != nil {
		t.Fatalf("A: %v", out.err)
	}
	// D attempts to enroll as p; it must wait: B and C are not finished.
	chD := enrollAsync(ctx, in, Enrollment{PID: "D", Role: ids.Role("p")})
	time.Sleep(30 * time.Millisecond)
	select {
	case out := <-chD:
		t.Fatalf("D enrolled before the first performance ended: %+v", out)
	default:
	}
	close(gateB)
	for _, ch := range []<-chan enrollOut{chB, chC, chD} {
		if out := <-ch; out.err != nil {
			t.Fatalf("enrollment failed: %v", out.err)
		}
	}
	outD := trace.ByKind(trace.KindStart, ids.Role("p"), "D")
	d, ok := log.First(outD)
	if !ok || d.Performance != 2 {
		t.Fatalf("D's start: %+v ok=%v, want performance 2", d, ok)
	}
	for _, pid := range []ids.PID{"B", "C"} {
		if !log.Before(trace.ByKind(trace.KindFinish, ids.RoleRef{}, pid), outD) {
			t.Errorf("%s's finish must precede D's start", pid)
		}
	}
}

// TestFigure2RepeatedEnrollment reproduces Figure 2: A transmits x then v;
// B receives u then y; the successive-activations rule must guarantee u=x
// and y=v.
func TestFigure2RepeatedEnrollment(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 2, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()

	otherRecipient := func(round int) <-chan enrollOut {
		return enrollAsync(ctx, in, Enrollment{
			PID: ids.PID(fmt.Sprintf("other%d", round)), Role: ids.Member("recipient", 2),
		})
	}

	aDone := make(chan error, 1)
	go func() {
		for _, x := range []any{"x", "v"} {
			if _, err := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("sender"), Args: []any{x}}); err != nil {
				aDone <- err
				return
			}
		}
		aDone <- nil
	}()
	o1 := otherRecipient(1)
	var got []any
	for round := 0; round < 2; round++ {
		if round == 1 {
			o1 = otherRecipient(2)
		}
		res, err := in.Enroll(ctx, Enrollment{PID: "B", Role: ids.Member("recipient", 1)})
		if err != nil {
			t.Fatalf("B round %d: %v", round, err)
		}
		got = append(got, res.Values[0])
		if out := <-o1; out.err != nil {
			t.Fatalf("other recipient: %v", out.err)
		}
	}
	if err := <-aDone; err != nil {
		t.Fatalf("A: %v", err)
	}
	if got[0] != "x" || got[1] != "v" {
		t.Fatalf("B received %v, want [x v] (u=x, y=v)", got)
	}
}

func TestCriticalSetAbsentRole(t *testing.T) {
	ctx := testCtx(t)
	// manager plus reader and/or writer; writer stays away.
	def, err := NewScript("db").
		Role("manager", func(rc Ctx) error {
			if rc.Terminated(ids.Role("writer")) {
				rc.SetResult(0, "writer-absent")
			} else {
				rc.SetResult(0, "writer-present")
			}
			// Communication with the absent writer must fail with the
			// distinguished value, not block.
			err := rc.Send(ids.Role("writer"), "ping")
			if !errors.Is(err, ErrRoleAbsent) {
				return fmt.Errorf("send to absent writer: %v", err)
			}
			v, err := rc.Recv(ids.Role("reader"))
			if err != nil {
				return err
			}
			rc.SetResult(1, v)
			return nil
		}).
		Role("reader", func(rc Ctx) error {
			return rc.Send(ids.Role("manager"), "read-req")
		}).
		Role("writer", func(rc Ctx) error {
			return rc.Send(ids.Role("manager"), "write-req")
		}).
		CriticalSet(ids.Role("manager"), ids.Role("reader")).
		CriticalSet(ids.Role("manager"), ids.Role("writer")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()

	chM := enrollAsync(ctx, in, Enrollment{PID: "M", Role: ids.Role("manager")})
	chR := enrollAsync(ctx, in, Enrollment{PID: "R", Role: ids.Role("reader")})
	outM := <-chM
	if outM.err != nil {
		t.Fatalf("manager: %v", outM.err)
	}
	if outM.res.Values[0] != "writer-absent" {
		t.Errorf("Terminated(writer) inside body = %v, want writer-absent", outM.res.Values[0])
	}
	if outM.res.Values[1] != "read-req" {
		t.Errorf("manager received %v, want read-req", outM.res.Values[1])
	}
	if out := <-chR; out.err != nil {
		t.Fatalf("reader: %v", out.err)
	}
}

func TestCriticalSetBothReaderAndWriterAdmitted(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("db2").
		Role("manager", func(rc Ctx) error {
			for _, r := range []ids.RoleRef{ids.Role("reader"), ids.Role("writer")} {
				if rc.Terminated(r) {
					continue
				}
				if _, err := rc.Recv(r); err != nil {
					return err
				}
			}
			return nil
		}).
		Role("reader", func(rc Ctx) error { return rc.Send(ids.Role("manager"), "r") }).
		Role("writer", func(rc Ctx) error { return rc.Send(ids.Role("manager"), "w") }).
		CriticalSet(ids.Role("manager"), ids.Role("reader")).
		CriticalSet(ids.Role("manager"), ids.Role("writer")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	var log trace.Log
	in := NewInstance(def, WithTracer(&log))
	defer in.Close()

	// Reader and writer first: neither covers a critical set without the
	// manager, so both are pending when the manager arrives and the maximal
	// match must admit both.
	chans := []<-chan enrollOut{
		enrollAsync(ctx, in, Enrollment{PID: "R", Role: ids.Role("reader")}),
		enrollAsync(ctx, in, Enrollment{PID: "W", Role: ids.Role("writer")}),
	}
	for in.PendingOffers() < 2 {
		time.Sleep(time.Millisecond)
	}
	chans = append(chans, enrollAsync(ctx, in, Enrollment{PID: "M", Role: ids.Role("manager")}))
	for _, ch := range chans {
		if out := <-ch; out.err != nil {
			t.Fatalf("enrollment: %v", out.err)
		}
	}
	if in.Performances() != 1 {
		t.Fatalf("performances = %d, want 1 (maximal match admits both)", in.Performances())
	}
	if absents := log.Filter(func(e trace.Event) bool { return e.Kind == trace.KindAbsent }); len(absents) != 0 {
		t.Fatalf("no role should be absent, got %v", absents)
	}
}

func TestImmediateInitiationLateJoin(t *testing.T) {
	ctx := testCtx(t)
	// Pipeline flavour: sender hands to r1, which waits for r2.
	def, err := NewScript("pipe").
		Role("sender", func(rc Ctx) error {
			return rc.Send(ids.Member("r", 1), rc.Arg(0))
		}).
		Family("r", 2, func(rc Ctx) error {
			var v any
			var err error
			if rc.Index() == 1 {
				if v, err = rc.Recv(ids.Role("sender")); err != nil {
					return err
				}
				if err = rc.Send(ids.Member("r", 2), v); err != nil {
					return err
				}
			} else {
				if v, err = rc.Recv(ids.Member("r", 1)); err != nil {
					return err
				}
			}
			rc.SetResult(0, v)
			return nil
		}).
		Initiation(ImmediateInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()

	// Sender and r1 enroll; performance starts without r2.
	chS := enrollAsync(ctx, in, Enrollment{PID: "S", Role: ids.Role("sender"), Args: []any{"m"}})
	ch1 := enrollAsync(ctx, in, Enrollment{PID: "P1", Role: ids.Member("r", 1)})
	if out := <-chS; out.err != nil {
		t.Fatalf("sender: %v", out.err)
	}
	// Sender is already released (immediate termination); r2 joins late.
	res2, err := in.Enroll(ctx, Enrollment{PID: "P2", Role: ids.Member("r", 2)})
	if err != nil {
		t.Fatalf("r2: %v", err)
	}
	if res2.Values[0] != "m" || res2.Performance != 1 {
		t.Fatalf("r2 got %v in performance %d, want m in 1", res2.Values, res2.Performance)
	}
	if out := <-ch1; out.err != nil {
		t.Fatalf("r1: %v", out.err)
	}
}

func TestImmediateTerminationFreesEarlyRoles(t *testing.T) {
	ctx := testCtx(t)
	gate := make(chan struct{})
	def, err := NewScript("early").
		Role("fast", func(rc Ctx) error { return nil }).
		Role("slow", func(rc Ctx) error { <-gate; return nil }).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chSlow := enrollAsync(ctx, in, Enrollment{PID: "S", Role: ids.Role("slow")})
	if _, err := in.Enroll(ctx, Enrollment{PID: "F", Role: ids.Role("fast")}); err != nil {
		t.Fatalf("fast released only after slow? %v", err)
	}
	close(gate)
	if out := <-chSlow; out.err != nil {
		t.Fatalf("slow: %v", out.err)
	}
}

func TestDelayedTerminationHoldsAllUntilLastFinish(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 2, DelayedInitiation, DelayedTermination)
	var log trace.Log
	in := NewInstance(def, WithTracer(&log))
	defer in.Close()

	chans := []<-chan enrollOut{
		enrollAsync(ctx, in, Enrollment{PID: "T", Role: ids.Role("sender"), Args: []any{9}}),
		enrollAsync(ctx, in, Enrollment{PID: "R1", Role: ids.Member("recipient", 1)}),
		enrollAsync(ctx, in, Enrollment{PID: "R2", Role: ids.Member("recipient", 2)}),
	}
	for _, ch := range chans {
		if out := <-ch; out.err != nil {
			t.Fatal(out.err)
		}
	}
	// Every release must come after the performance-end event.
	end, ok := log.First(func(e trace.Event) bool { return e.Kind == trace.KindPerfEnd })
	if !ok {
		t.Fatal("no perf-end event")
	}
	for _, rel := range log.Filter(func(e trace.Event) bool { return e.Kind == trace.KindRelease }) {
		if rel.Seq < end.Seq {
			t.Errorf("release %v precedes performance end (delayed termination violated)", rel)
		}
	}
}

func TestPartnerNamingMatchesOnlyAgreeingProcesses(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 1, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()

	// Recipient insists the sender be "T"; an impostor "X" enrolls first.
	chR := enrollAsync(ctx, in, Enrollment{
		PID: "P", Role: ids.Member("recipient", 1),
		With: map[ids.RoleRef]ids.PIDSet{ids.Role("sender"): ids.NewPIDSet("T")},
	})
	chX := enrollAsync(ctx, in, Enrollment{
		PID: "X", Role: ids.Role("sender"), Args: []any{"bad"},
		With: map[ids.RoleRef]ids.PIDSet{ids.Member("recipient", 1): ids.NewPIDSet("Q")},
	})
	time.Sleep(30 * time.Millisecond)
	if in.Performances() != 0 {
		t.Fatal("mismatched partner constraints must not match")
	}
	// T arrives, accepting anyone; P's constraint is now satisfiable.
	chT := enrollAsync(ctx, in, Enrollment{PID: "T", Role: ids.Role("sender"), Args: []any{"good"}})
	out := <-chR
	if out.err != nil {
		t.Fatalf("recipient: %v", out.err)
	}
	if out.res.Values[0] != "good" {
		t.Fatalf("recipient got %v from the wrong sender", out.res.Values)
	}
	if o := <-chT; o.err != nil {
		t.Fatalf("T: %v", o.err)
	}
	// X remains pending forever; clean up via Close.
	in.Close()
	if o := <-chX; !errors.Is(o.err, ErrClosed) {
		t.Fatalf("X: err = %v, want ErrClosed", o.err)
	}
}

func TestEnrollValidation(t *testing.T) {
	def := starBroadcastDef(t, 2, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()
	ctx := testCtx(t)

	tests := []struct {
		name string
		e    Enrollment
		want error
	}{
		{"empty pid", Enrollment{Role: ids.Role("sender")}, nil},
		{"unknown role", Enrollment{PID: "A", Role: ids.Role("nope")}, ErrUnknownRole},
		{"family as scalar", Enrollment{PID: "A", Role: ids.Role("recipient")}, ErrUnknownRole},
		{"scalar as family", Enrollment{PID: "A", Role: ids.Member("sender", 1)}, ErrUnknownRole},
		{"index out of range", Enrollment{PID: "A", Role: ids.Member("recipient", 3)}, ErrUnknownRole},
		{"index zero", Enrollment{PID: "A", Role: ids.Member("recipient", 0)}, ErrUnknownRole},
		{"bad constraint role", Enrollment{PID: "A", Role: ids.Role("sender"),
			With: map[ids.RoleRef]ids.PIDSet{ids.Role("ghost"): nil}}, ErrUnknownRole},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := in.Enroll(ctx, tt.e)
			if err == nil {
				t.Fatal("want error")
			}
			if tt.want != nil && !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestCloseUnblocksPendingAndRunning(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("s").
		Role("a", func(rc Ctx) error {
			_, err := rc.Recv(ids.Role("b")) // blocks: b never sends
			return err
		}).
		Role("b", func(rc Ctx) error {
			_, err := rc.Recv(ids.Role("a"))
			return err
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	chA := enrollAsync(ctx, in, Enrollment{PID: "A", Role: ids.Role("a")})
	chB := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("b")})
	time.Sleep(30 * time.Millisecond)
	in.Close()
	for _, ch := range []<-chan enrollOut{chA, chB} {
		out := <-ch
		if out.err == nil {
			t.Fatal("want error after Close")
		}
	}
	// Enrollment after close fails fast.
	if _, err := in.Enroll(ctx, Enrollment{PID: "C", Role: ids.Role("a")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close enroll: %v", err)
	}
}

func TestContextCancellationWithdrawsPendingOffer(t *testing.T) {
	def := starBroadcastDef(t, 1, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()
	cctx, cancel := context.WithCancel(context.Background())
	ch := enrollAsync(cctx, in, Enrollment{PID: "T", Role: ids.Role("sender")})
	for in.PendingOffers() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	out := <-ch
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	if in.PendingOffers() != 0 {
		t.Fatal("withdrawn offer still pending")
	}
}

func TestRoleBodyErrorWrapsAsRoleError(t *testing.T) {
	ctx := testCtx(t)
	boom := errors.New("boom")
	def, err := NewScript("s").
		Role("a", func(rc Ctx) error { return boom }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	_, eerr := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a")})
	var re *RoleError
	if !errors.As(eerr, &re) || !errors.Is(eerr, boom) {
		t.Fatalf("err = %v, want RoleError wrapping boom", eerr)
	}
	if re.Role != ids.Role("a") || re.Script != "s" {
		t.Fatalf("RoleError fields: %+v", re)
	}
}

func TestRoleBodyPanicBecomesError(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("s").
		Role("a", func(rc Ctx) error { panic("kaboom") }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	_, eerr := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a")})
	var re *RoleError
	if !errors.As(eerr, &re) {
		t.Fatalf("err = %v, want RoleError", eerr)
	}
	// The instance must still be usable for the next performance.
	if _, err := in.Enroll(ctx, Enrollment{PID: "B", Role: ids.Role("a")}); err == nil {
		t.Fatal("second performance should also report the panic")
	}
	if in.Performances() != 2 {
		t.Fatalf("performances = %d, want 2", in.Performances())
	}
}

func TestCommWithFinishedRoleFails(t *testing.T) {
	ctx := testCtx(t)
	r1Done := make(chan struct{})
	def, err := NewScript("s").
		Role("quick", func(rc Ctx) error { return nil }).
		Role("late", func(rc Ctx) error {
			<-r1Done
			err := rc.Send(ids.Role("quick"), 1)
			if !errors.Is(err, ErrRoleFinished) {
				return fmt.Errorf("send to finished role: %v", err)
			}
			return nil
		}).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chQ := enrollAsync(ctx, in, Enrollment{PID: "Q", Role: ids.Role("quick")})
	chL := enrollAsync(ctx, in, Enrollment{PID: "L", Role: ids.Role("late")})
	if out := <-chQ; out.err != nil {
		t.Fatal(out.err)
	}
	close(r1Done)
	if out := <-chL; out.err != nil {
		t.Fatal(out.err)
	}
}

func TestSelectGuardsAndAnyPeer(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("sel").
		Role("hub", func(rc Ctx) error {
			seen := map[string]bool{}
			for len(seen) < 2 {
				sel, err := rc.Select(
					RecvFrom(ids.Member("w", 1)),
					RecvFrom(ids.Member("w", 2)),
					SendTo(ids.Member("w", 3), "never").When(false),
				)
				if err != nil {
					return err
				}
				seen[sel.Peer.String()] = true
			}
			rc.SetResult(0, len(seen))
			return nil
		}).
		Family("w", 3, func(rc Ctx) error {
			if rc.Index() == 3 {
				return nil // w3 participates but stays silent
			}
			return rc.Send(ids.Role("hub"), rc.Index())
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	var chans []<-chan enrollOut
	for i := 1; i <= 3; i++ {
		chans = append(chans, enrollAsync(ctx, in, Enrollment{
			PID: ids.PID(fmt.Sprintf("W%d", i)), Role: ids.Member("w", i),
		}))
	}
	res, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
	if err != nil {
		t.Fatalf("hub: %v", err)
	}
	if res.Values[0] != 2 {
		t.Fatalf("hub saw %v peers, want 2", res.Values[0])
	}
	for _, ch := range chans {
		if out := <-ch; out.err != nil {
			t.Fatal(out.err)
		}
	}
}

func TestSelectNoBranches(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("sel2").
		Role("a", func(rc Ctx) error {
			_, err := rc.Select(SendTo(ids.Role("b"), 1).When(false))
			if !errors.Is(err, ErrNoBranches) {
				return fmt.Errorf("select: %v", err)
			}
			return nil
		}).
		Role("b", func(rc Ctx) error { return nil }).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chB := enrollAsync(ctx, in, Enrollment{PID: "B", Role: ids.Role("b")})
	if _, err := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a")}); err != nil {
		t.Fatal(err)
	}
	<-chB
}

func TestRecvAnyIdentifiesSenderAndTag(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("anyrecv").
		Role("server", func(rc Ctx) error {
			from, tag, v, err := rc.RecvAny()
			if err != nil {
				return err
			}
			rc.Return(from.String(), tag, v)
			return nil
		}).
		Role("client", func(rc Ctx) error {
			return rc.SendTag(ids.Role("server"), "req", "payload")
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chC := enrollAsync(ctx, in, Enrollment{PID: "C", Role: ids.Role("client")})
	res, err := in.Enroll(ctx, Enrollment{PID: "S", Role: ids.Role("server")})
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"client", "req", "payload"}
	for i := range want {
		if res.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
	<-chC
}

func TestOpenFamilyDynamicExtent(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("open").
		Role("hub", func(rc Ctx) error {
			n := rc.FamilySize("w")
			for i := 1; i <= n; i++ {
				if err := rc.Send(ids.Member("w", i), i*10); err != nil {
					return err
				}
			}
			rc.SetResult(0, n)
			return nil
		}).
		OpenFamily("w", func(rc Ctx) error {
			v, err := rc.Recv(ids.Role("hub"))
			if err != nil {
				return err
			}
			rc.SetResult(0, v)
			return nil
		}).
		CriticalSet(ids.Role("hub")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()

	for _, n := range []int{2, 4} {
		var chans []<-chan enrollOut
		for i := 1; i <= n; i++ {
			chans = append(chans, enrollAsync(ctx, in, Enrollment{
				PID: ids.PID(fmt.Sprintf("W%d", i)), Role: ids.Member("w", i),
			}))
		}
		// Let all workers be pending before the hub covers the critical set.
		for in.PendingOffers() < n {
			time.Sleep(time.Millisecond)
		}
		res, err := in.Enroll(ctx, Enrollment{PID: "H", Role: ids.Role("hub")})
		if err != nil {
			t.Fatalf("hub (n=%d): %v", n, err)
		}
		if res.Values[0] != n {
			t.Fatalf("hub saw family size %v, want %d", res.Values[0], n)
		}
		for i, ch := range chans {
			out := <-ch
			if out.err != nil {
				t.Fatalf("worker %d: %v", i+1, out.err)
			}
			if out.res.Values[0] != (i+1)*10 {
				t.Fatalf("worker %d got %v", i+1, out.res.Values)
			}
		}
	}
	if in.Performances() != 2 {
		t.Fatalf("performances = %d, want 2", in.Performances())
	}
}

func TestNestedEnrollment(t *testing.T) {
	ctx := testCtx(t)
	innerDef, err := NewScript("inner").
		Role("x", func(rc Ctx) error { return rc.Send(ids.Role("y"), "deep") }).
		Role("y", func(rc Ctx) error {
			v, err := rc.Recv(ids.Role("x"))
			rc.SetResult(0, v)
			return err
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	inner := NewInstance(innerDef)
	defer inner.Close()

	outerDef, err := NewScript("outer").
		Role("a", func(rc Ctx) error {
			native, ok := rc.(*RoleCtx)
			if !ok {
				return errors.New("nested enrollment requires the native runtime")
			}
			res, err := native.EnrollIn(inner, Enrollment{Role: ids.Role("y")})
			if err != nil {
				return err
			}
			rc.SetResult(0, res.Values[0])
			return nil
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	outer := NewInstance(outerDef)
	defer outer.Close()

	chX := enrollAsync(ctx, inner, Enrollment{PID: "peer", Role: ids.Role("x")})
	res, err := outer.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a")})
	if err != nil {
		t.Fatalf("outer: %v", err)
	}
	if res.Values[0] != "deep" {
		t.Fatalf("nested result = %v, want deep", res.Values)
	}
	<-chX
}

func TestMultipleInstancesIndependent(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 1, DelayedInitiation, DelayedTermination)
	in1 := NewInstance(def)
	in2 := NewInstance(def)
	defer in1.Close()
	defer in2.Close()

	ch1R := enrollAsync(ctx, in1, Enrollment{PID: "R", Role: ids.Member("recipient", 1)})
	ch2R := enrollAsync(ctx, in2, Enrollment{PID: "R", Role: ids.Member("recipient", 1)})
	if _, err := in1.Enroll(ctx, Enrollment{PID: "T1", Role: ids.Role("sender"), Args: []any{"one"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := in2.Enroll(ctx, Enrollment{PID: "T2", Role: ids.Role("sender"), Args: []any{"two"}}); err != nil {
		t.Fatal(err)
	}
	if out := <-ch1R; out.res.Values[0] != "one" {
		t.Fatalf("instance 1 delivered %v", out.res.Values)
	}
	if out := <-ch2R; out.res.Values[0] != "two" {
		t.Fatalf("instance 2 delivered %v", out.res.Values)
	}
}

func TestFIFOFairnessServesInArrivalOrder(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("contend").
		Role("slot", func(rc Ctx) error {
			rc.SetResult(0, string(rc.PID()))
			return nil
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def) // FIFO is the default
	defer in.Close()

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		pid := ids.PID(fmt.Sprintf("P%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := in.Enroll(ctx, Enrollment{PID: pid, Role: ids.Role("slot")}); err == nil {
				mu.Lock()
				order = append(order, string(pid))
				mu.Unlock()
			}
		}()
		// Serialize arrival so FIFO order is observable.
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			served := len(order)
			mu.Unlock()
			if in.PendingOffers()+served+in.activeCount() > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("enrollment never arrived")
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	for i, pid := range []string{"P0", "P1", "P2", "P3"} {
		if order[i] != pid {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

// activeCount reports whether a performance is active (0 or 1), for tests.
func (in *Instance) activeCount() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.active != nil {
		return 1
	}
	return 0
}

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name  string
		build func() (Definition, error)
	}{
		{"empty name", func() (Definition, error) { return NewScript("").Role("a", nopBody).Build() }},
		{"no roles", func() (Definition, error) { return NewScript("s").Build() }},
		{"nil body", func() (Definition, error) { return NewScript("s").Role("a", nil).Build() }},
		{"dup role", func() (Definition, error) {
			return NewScript("s").Role("a", nopBody).Role("a", nopBody).Build()
		}},
		{"family size", func() (Definition, error) { return NewScript("s").Family("f", 0, nopBody).Build() }},
		{"empty role name", func() (Definition, error) { return NewScript("s").Role("", nopBody).Build() }},
		{"bad initiation", func() (Definition, error) {
			return NewScript("s").Role("a", nopBody).Initiation(Initiation(9)).Build()
		}},
		{"bad termination", func() (Definition, error) {
			return NewScript("s").Role("a", nopBody).Termination(Termination(9)).Build()
		}},
		{"critical set unknown role", func() (Definition, error) {
			return NewScript("s").Role("a", nopBody).CriticalSet(ids.Role("zz")).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Fatal("want definition error")
			} else {
				var de *DefinitionError
				if !errors.As(err, &de) {
					t.Fatalf("err = %T, want *DefinitionError", err)
				}
			}
		})
	}
}

func nopBody(rc Ctx) error { return nil }

func TestMustBuildPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild must panic on invalid definition")
		}
	}()
	NewScript("").MustBuild()
}

func TestDefinitionAccessors(t *testing.T) {
	def := starBroadcastDef(t, 2, ImmediateInitiation, ImmediateTermination)
	if def.Name() != "broadcast" {
		t.Errorf("Name = %q", def.Name())
	}
	if def.InitiationPolicy() != ImmediateInitiation || def.TerminationPolicy() != ImmediateTermination {
		t.Error("policy accessors wrong")
	}
	names := def.RoleNames()
	if len(names) != 2 || names[0] != "sender" || names[1] != "recipient" {
		t.Errorf("RoleNames = %v", names)
	}
	if ImmediateInitiation.String() != "immediate" || DelayedTermination.String() != "delayed" {
		t.Error("policy String() wrong")
	}
}

func TestArgumentsAndResultsPlumbing(t *testing.T) {
	ctx := testCtx(t)
	def, err := NewScript("args").
		Role("a", func(rc Ctx) error {
			if rc.NumArgs() != 2 || rc.Arg(0) != "x" || rc.Arg(1) != 7 {
				return fmt.Errorf("args = %v", rc.Args())
			}
			if rc.Arg(5) != nil || rc.Arg(-1) != nil {
				return errors.New("out-of-range Arg must be nil")
			}
			rc.SetResult(2, "third") // grows
			rc.SetResult(0, "first")
			return nil
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	res, err := in.Enroll(ctx, Enrollment{PID: "A", Role: ids.Role("a"), Args: []any{"x", 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := []any{"first", nil, "third"}
	if len(res.Values) != 3 {
		t.Fatalf("values = %v", res.Values)
	}
	for i := range want {
		if res.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", res.Values, want)
		}
	}
}

func TestTerminatedLifecycle(t *testing.T) {
	ctx := testCtx(t)
	probe := make(chan bool, 3)
	gate := make(chan struct{})
	def, err := NewScript("term").
		Role("watcher", func(rc Ctx) error {
			probe <- rc.Terminated(ids.Role("worker")) // running: false
			if _, err := rc.Recv(ids.Role("worker")); err != nil {
				return err
			}
			<-gate                                      // wait until worker finished
			probe <- rc.Terminated(ids.Role("worker"))  // finished: true
			probe <- rc.Terminated(ids.Role("watcher")) // self, running: false
			return nil
		}).
		Role("worker", func(rc Ctx) error {
			return rc.Send(ids.Role("watcher"), 1)
		}).
		Initiation(DelayedInitiation).
		Termination(ImmediateTermination).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	in := NewInstance(def)
	defer in.Close()
	chW := enrollAsync(ctx, in, Enrollment{PID: "W", Role: ids.Role("worker")})
	chWatch := enrollAsync(ctx, in, Enrollment{PID: "V", Role: ids.Role("watcher")})
	if out := <-chW; out.err != nil {
		t.Fatal(out.err)
	}
	close(gate)
	if out := <-chWatch; out.err != nil {
		t.Fatal(out.err)
	}
	if <-probe {
		t.Error("Terminated(worker) while running = true, want false")
	}
	if !<-probe {
		t.Error("Terminated(worker) after finish = false, want true")
	}
	if <-probe {
		t.Error("Terminated(self) while running = true, want false")
	}
}

func TestManySuccessivePerformances(t *testing.T) {
	ctx := testCtx(t)
	def := starBroadcastDef(t, 1, DelayedInitiation, DelayedTermination)
	in := NewInstance(def)
	defer in.Close()

	const rounds = 25
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			res, err := in.Enroll(ctx, Enrollment{PID: "R", Role: ids.Member("recipient", 1)})
			if err != nil {
				recvDone <- err
				return
			}
			if res.Values[0] != i {
				recvDone <- fmt.Errorf("round %d got %v", i, res.Values[0])
				return
			}
		}
		recvDone <- nil
	}()
	for i := 0; i < rounds; i++ {
		if _, err := in.Enroll(ctx, Enrollment{PID: "T", Role: ids.Role("sender"), Args: []any{i}}); err != nil {
			t.Fatalf("send round %d: %v", i, err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if in.Performances() != rounds {
		t.Fatalf("performances = %d, want %d", in.Performances(), rounds)
	}
}
