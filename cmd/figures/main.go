// Command figures replays each of the paper's twelve figures on this
// repository's runtimes and prints a narrative of what happened: Figure 1's
// timeline, Figure 2's repeated enrollment, the three example scripts
// (Figures 3–5), the CSP embedding and translation (Figures 6–7), the Ada
// embedding and translation (Figures 8–11), and the monitor mailboxes
// (Figure 12). Each figure's program is the fixture that cmd/scriptbench's
// table checks and bench_test.go times (internal/experiments,
// internal/trans/equiv); this command runs it once and narrates.
//
// Usage:
//
//	figures [-fig 1] [-timeout 2m]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/experiments"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trace"
	"github.com/scriptabs/goscript/internal/trans/equiv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// figure is one replay; it covers the paper's figures first..last.
type figure struct {
	first, last int
	title       string
	run         func(ctx context.Context, w io.Writer) error
}

var figures = []figure{
	{1, 1, "Consecutive performances", figure1},
	{2, 2, "Repeated enrollment (u=x, y=v)", figure2},
	{3, 3, "Synchronized star broadcast", figure3},
	{4, 4, "Pipeline broadcast", figure4},
	{5, 5, "Database lock manager", figure5},
	{6, 6, "Broadcast in CSP", figure6},
	{7, 7, "CSP supervisor p_s", figure7},
	{8, 8, "Broadcast in Ada (reverse broadcast)", figure8},
	{9, 11, "Ada translation (supervisor + role tasks)", figure9to11},
	{12, 12, "Mailbox broadcast with monitors", figure12},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "show only this figure (1..12; 0 = all)")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall time budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig < 0 || *fig > 12 {
		return fmt.Errorf("no figure %d: the paper has figures 1..12", *fig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	for _, f := range figures {
		if *fig != 0 && (*fig < f.first || *fig > f.last) {
			continue
		}
		if f.first == f.last {
			fmt.Fprintf(w, "--- Figure %d: %s ---\n", f.first, f.title)
		} else {
			fmt.Fprintf(w, "--- Figures %d-%d: %s ---\n", f.first, f.last, f.title)
		}
		if err := f.run(ctx, w); err != nil {
			return fmt.Errorf("figure %d: %w", f.first, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure1 replays Figure 1's timeline with four processes and three roles.
func figure1(ctx context.Context, w io.Writer) error {
	log, _, err := experiments.Figure1(ctx)
	if err != nil {
		return err
	}
	fmt.Fprint(w, log.Timeline())
	return nil
}

// figure2 replays Figure 2: A broadcasts x then v; B receives u then y.
func figure2(ctx context.Context, w io.Writer) error {
	u, y, err := experiments.Figure2(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: ENROLL AS transmitter(x); ENROLL AS transmitter(v)\n")
	fmt.Fprintf(w, "B: ENROLL AS recipient(u);   ENROLL AS recipient(y)\n")
	fmt.Fprintf(w, "result: u=%v (want x), y=%v (want v)\n", u, y)
	return nil
}

// broadcastCast is the cast the broadcast figures share: n recipients and a
// sender transmitting value.
func broadcastCast(n int, value any) []equiv.Part {
	return equiv.Broadcast(n, func(int) any { return value })
}

// reportRecipients prints what each recipient of a broadcast cast observed
// in its one performance, one line each; format takes the recipient's index
// and the value.
func reportRecipients(w io.Writer, cast []equiv.Part, outs equiv.Outs, format string) {
	for i, p := range cast[1:] {
		fmt.Fprintf(w, format, i+1, outs[p.Role][0][0])
	}
}

// runBroadcastFigure drives one performance of a broadcast script on the
// native runtime and prints what was received and the communication pattern.
func runBroadcastFigure(ctx context.Context, w io.Writer, def core.Definition, n int) error {
	var log trace.Log
	cast := broadcastCast(n, "data")
	outs, err := equiv.Native(ctx, def, cast, 1, core.WithTracer(&log))
	if err != nil {
		return err
	}
	reportRecipients(w, cast, outs, "recipient[%d] received %v\n")
	sends := log.Filter(func(e trace.Event) bool { return e.Kind == trace.KindSend })
	fmt.Fprintf(w, "communication pattern (%d sends):", len(sends))
	for _, e := range sends {
		fmt.Fprintf(w, " %s->%s", e.Role, e.Peer)
	}
	fmt.Fprintln(w)
	return nil
}

func figure3(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "SCRIPT star_broadcast; INITIATION: DELAYED; TERMINATION: DELAYED")
	return runBroadcastFigure(ctx, w, patterns.StarBroadcast(5), 5)
}

func figure4(ctx context.Context, w io.Writer) error {
	fmt.Fprintln(w, "SCRIPT pipeline_broadcast; INITIATION: IMMEDIATE; TERMINATION: IMMEDIATE")
	return runBroadcastFigure(ctx, w, patterns.PipelineBroadcast(5), 5)
}

// figure5 drives the lock-manager script: one lock to read, k locks to
// write, with an absent writer in the first performance.
func figure5(ctx context.Context, w io.Writer) (err error) {
	const k = 3
	svc := experiments.StartLockService(ctx, k, patterns.OneReadAllWrite())
	defer func() {
		if stopErr := svc.Stop(); stopErr != nil {
			err = stopErr // a manager's failure is why a request failed
		}
	}()
	ctx = svc.Context()

	g, err := patterns.RequestLock(ctx, svc.In, "PR", "reader-1", "item", false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reader locks 'item' (1 of %d managers needed):  granted=%v\n", k, g)
	g, err = patterns.RequestLock(ctx, svc.In, "PW", "writer-1", "item", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "writer locks 'item' (%d of %d managers needed): granted=%v (reader holds it)\n", k, k, g)
	if err := patterns.ReleaseLock(ctx, svc.In, "PR", "reader-1", "item", false); err != nil {
		return err
	}
	g, err = patterns.RequestLock(ctx, svc.In, "PW", "writer-1", "item", true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "after the reader releases, writer retries:    granted=%v\n", g)
	return nil
}

// figure6 runs the CSP transcription of Figure 6.
func figure6(ctx context.Context, w io.Writer) error {
	received, err := experiments.CSPBroadcast(ctx, 5, "x")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "transmitter:: *[ (k=1,5) ¬sent[k]; recipient[k]!x → sent[k]:=true ]")
	for i, y := range received {
		fmt.Fprintf(w, "recipient[%d]?y = %v\n", i+1, y)
	}
	return nil
}

// figure7 runs the broadcast through the CSP translation's supervisor.
func figure7(ctx context.Context, w io.Writer) error {
	const n = 3
	cast := broadcastCast(n, "via-p_s")
	outs, host, err := equiv.CSP(ctx, patterns.StarBroadcast(n), cast, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "supervisor %s coordinated 1 performance of %d roles (start_s/end_s counting)\n",
		host.SupervisorName(), len(cast))
	reportRecipients(w, cast, outs, "q[%[1]d] enrolled as recipient[%[1]d] and received %[2]v\n")
	return nil
}

// figure8 runs the reverse broadcast on the Ada substrate.
func figure8(ctx context.Context, w io.Writer) error {
	served, err := experiments.AdaBroadcast(ctx, 5, "data")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "the recipients CALL the sender's receive entry (reverse broadcast):")
	fmt.Fprint(w, "service order:")
	for _, s := range served {
		fmt.Fprintf(w, " r%d:=%v", s.Recipient, s.Got)
	}
	fmt.Fprintln(w)
	return nil
}

// figure9to11 runs the Ada translation: role tasks with start/stop entries
// and the supervisor task.
func figure9to11(ctx context.Context, w io.Writer) error {
	const n = 3
	cast := broadcastCast(n, "via-tasks")
	outs, host, err := equiv.Ada(ctx, patterns.StarBroadcast(n), cast, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "translation created %d tasks (m+1): one per role plus the supervisor\n", host.TaskCount())
	fmt.Fprintln(w, "each enrollment became the entry-call pair  s_r.start(in); s_r.stop(out)")
	reportRecipients(w, cast, outs, "recipient[%d] stop entry returned %v\n")
	return nil
}

// figure12 runs the mailbox broadcast on the monitor host.
func figure12(ctx context.Context, w io.Writer) error {
	const n = 5
	cast := broadcastCast(n, "via-mailboxes")
	outs, _, err := equiv.Monitors(ctx, patterns.StarBroadcast(n), cast, 1)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "sender: FOR r := 1 TO 5 DO recipient[r].mbox.put(data)")
	reportRecipients(w, cast, outs, "recipient[%d].mbox.get(data) = %v\n")
	return nil
}
