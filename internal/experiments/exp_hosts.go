package experiments

import (
	"context"
	"fmt"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trans/equiv"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

// substrateTable is E06's and E08's shape: `runs` runs of a broadcast
// written directly on a host language, counting the recipients that got x.
func substrateTable(id, title, claim string, n, runs int, run func() (delivered int, err error)) Table {
	delivered := 0
	for r := 0; r < runs; r++ {
		d, err := run()
		if err != nil {
			return errTable(id, title, claim, err)
		}
		delivered += d
	}
	return Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"recipients", "runs", "deliveries"},
		Rows:    [][]string{{itoa(n), itoa(runs), fmt.Sprintf("%d/%d", delivered, n*runs)}},
		Verdict: pass(delivered == n*runs),
	}
}

// E06CSPBroadcast runs Figure 6's broadcast natively on the CSP substrate:
// output guards in the transmitter's repetitive command, "transmitter?y" in
// the recipients.
func E06CSPBroadcast(ctx context.Context) Table {
	const n = 5
	return substrateTable("E06", "Figure 6 — broadcast in CSP",
		"the transmitter sends x to the recipients in arbitrary order via output guards; recipients do transmitter?y",
		n, 30, func() (delivered int, err error) {
			received, err := CSPBroadcast(ctx, n, "x")
			for _, y := range received {
				if y == "x" {
					delivered++
				}
			}
			return delivered, err
		})
}

// E08AdaBroadcast runs Figure 8's reverse broadcast natively on the Ada
// substrate.
func E08AdaBroadcast(ctx context.Context) Table {
	const n = 5
	return substrateTable("E08", "Figure 8 — broadcast in Ada (reverse broadcast)",
		"the recipients call the transmitter, rather than the other way around — a result of Ada's naming conventions",
		n, 30, func() (delivered int, err error) {
			served, err := AdaBroadcast(ctx, n, "data")
			for _, s := range served {
				if s.Got == "data" {
					delivered++
				}
			}
			return delivered, err
		})
}

// translationTable is E07's and E09's shape: the same cast performs the
// star broadcast on the native runtime and through a translation, and the
// table sets what the recipients observed side by side with what the
// translation added.
func translationTable(ctx context.Context, id, title, claim, name, verdict string,
	translate func(ctx context.Context, def core.Definition, cast []equiv.Part, rounds int) (outs equiv.Outs, extra string, err error)) Table {
	const n, rounds = 4, 30
	def := patterns.StarBroadcast(n)
	cast := equiv.Broadcast(n, roundNumber)
	native, err := equiv.Native(ctx, def, cast, rounds)
	if err != nil {
		return errTable(id, title, claim, err)
	}
	trans, extra, err := translate(ctx, def, cast, rounds)
	if err != nil {
		return errTable(id, title, claim, err)
	}
	dn, dt := deliveries(cast, native), deliveries(cast, trans)
	return Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"implementation", "performances", "deliveries", "extra processes"},
		Rows: [][]string{
			{"native runtime", itoa(rounds), fmt.Sprintf("%d/%d", dn, n*rounds), "0"},
			{name, itoa(rounds), fmt.Sprintf("%d/%d", dt, n*rounds), extra},
		},
		Verdict: pass(dn == n*rounds && dt == n*rounds) + verdict,
	}
}

// E07CSPTranslation compares the native runtime against the paper's CSP
// translation (supervisor process p_s, Figure 7) on the same script.
func E07CSPTranslation(ctx context.Context) Table {
	return translationTable(ctx, "E07", "Figure 7 — translation into CSP (supervisor p_s)",
		"scripts do not transcend the direct expressive power of CSP; the supervisor coordinates enrollments (centralized, as an existence proof)",
		"CSP translation", " (same observable deliveries; the translation adds its centralized supervisor)",
		func(ctx context.Context, def core.Definition, cast []equiv.Part, rounds int) (equiv.Outs, string, error) {
			outs, host, err := equiv.CSP(ctx, def, cast, rounds)
			if err != nil {
				return nil, "", err
			}
			return outs, fmt.Sprintf("1 (%s)", host.SupervisorName()), nil
		})
}

// E09AdaTranslation compares the native runtime against the paper's Ada
// translation (role tasks with start/stop entries plus a supervisor task).
func E09AdaTranslation(ctx context.Context) Table {
	return translationTable(ctx, "E09", "Figures 9–11 — translation into Ada",
		"the number of processes grows from n to n+m+1, and the role bodies no longer run on the enrolling processor",
		"Ada translation", " (m+1 extra tasks, bodies run in role tasks, not in the enrollers)",
		func(ctx context.Context, def core.Definition, cast []equiv.Part, rounds int) (equiv.Outs, string, error) {
			outs, host, err := equiv.Ada(ctx, def, cast, rounds)
			if err != nil {
				return nil, "", err
			}
			return outs, fmt.Sprintf("%d (m+1)", host.TaskCount()), nil
		})
}

// E10MonitorMailbox compares the paper's two monitor packagings: one shared
// monitor for all mailboxes versus one monitor per mailbox, on a workload
// of independent role pairs exchanging messages.
func E10MonitorMailbox(ctx context.Context) Table {
	return e10(ctx, nil, []monx.Option{monx.WithSharedMonitor()})
}

// e10 runs the pair exchange under two packagings of the mailboxes and
// judges what each packaging is: how many monitors stand between
// independent pairs. How much the shared one costs on a given machine is
// BenchmarkE10MonitorMailbox's to say; the table reports, and does not
// judge, how many mailboxes contend for each monitor.
func e10(ctx context.Context, perMailbox, shared []monx.Option) Table {
	const (
		id    = "E10"
		title = "Figure 12 / §IV — monitors: one black box vs one per mailbox"
		claim = "a single monitor serializes all access to any mailbox; one monitor per mailbox eliminates the unnecessary concurrency restrictions"
	)
	const pairs, msgs = 8, 400
	def, cast := PairExchange(pairs, msgs)
	t := Table{
		ID: id, Title: title, Claim: claim,
		Headers: []string{"packaging", "mailboxes", "monitors", "mailboxes/monitor", "sums received"},
	}
	ok := true
	for _, arm := range []struct {
		name     string
		opts     []monx.Option
		monitors int
	}{
		{"one monitor per mailbox", perMailbox, len(cast)},
		{"single shared monitor", shared, 1},
	} {
		outs, host, err := equiv.Monitors(ctx, def, cast, 1, append(arm.opts, monx.WithCapacity(8))...)
		if err != nil {
			return errTable(id, title, claim, err)
		}
		sums := 0
		for i := 1; i < len(cast); i += 2 { // the right[i] parts
			if vals := outs[cast[i].Role][0]; len(vals) == 1 && vals[0] == msgs*(msgs-1)/2 {
				sums++
			}
		}
		monitors := host.Monitors()
		ok = ok && monitors == arm.monitors && sums == pairs
		t.Rows = append(t.Rows, []string{
			arm.name, itoa(len(cast)), itoa(monitors),
			fmt.Sprintf("%.0f", float64(len(cast))/float64(monitors)),
			fmt.Sprintf("%d/%d", sums, pairs),
		})
	}
	t.Verdict = pass(ok) + " (independent pairs share no monitor in the per-mailbox packaging and all share one in the black box; the cost is BenchmarkE10MonitorMailbox's)"
	return t
}
