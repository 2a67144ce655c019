package remote

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/wire"
)

// The two conversation sides' transition tables, enumerated cell by cell
// through their step functions, with no network: every cell is decided,
// every phase is reachable, the terminal phase holds, no sequence of events
// writes a terminal frame twice or an ABORT after one, and DESIGN.md's grids
// are the tables the code has.

var (
	hostPhaseNames  = [...]string{"over", "offering", "pending", "idle", "serving", "released", "held"}
	hostEventNames  = [...]string{"ENROLL", "offered", "op", "BODY-DONE", "assigned", "served", "refused", "Aborted", "Released", "ended", "held", "severed", "looked", "finish"}
	hostActionNames = [...]string{"", "adopt", "cut", "post", "queue", "end", "OFFER-ACK", "next", "lose", "stash", "ABORT", "answer", "finish", "cancel", "AbortPerformance", "terminal", "violate"}
	hostInputNames  = [...]string{"failed", "sev", "more"}
)

// hostCell steps a stream in phase p through event e with the inputs set in
// in (bit i is hostInputNames[i]).
func hostCell(p streamPhase, e hostEvent, in int) (streamPhase, hostAct) {
	st := &hostStream{phase: p}
	if in&2 != 0 {
		st.severed = "severed"
	}
	if in&4 != 0 {
		st.b.opCh = make(chan hostOp, 1)
		st.b.opCh <- hostOp{}
	}
	a := st.step(e, in&1 != 0)
	return st.phase, a
}

// hostOutcome renders the outcome of event e with inputs in, in phase p.
func hostOutcome(p streamPhase, e hostEvent, in int) string {
	next, a := hostCell(p, e, in)
	return renderHostOutcome(p, next, a)
}

func renderHostOutcome(p, next streamPhase, a hostAct) string {
	if a == actViolate {
		return "✗"
	}
	var parts []string
	if next != p {
		parts = append(parts, "→"+hostPhaseNames[next])
	}
	if a != actNone {
		parts = append(parts, hostActionNames[a])
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, " ")
}

// renderHostCell is a cell as DESIGN.md shows it: its outcome with no input
// set, then each input that changes it, in precedence order.
func renderHostCell(p streamPhase, e hostEvent) string {
	base := hostOutcome(p, e, 0)
	cell := base
	for i, name := range hostInputNames {
		if r := hostOutcome(p, e, 1<<i); r != base {
			cell += "; " + name + ": " + r
		}
	}
	return cell
}

func renderHostTable() string {
	var b strings.Builder
	b.WriteString("| event \\ phase |")
	for _, n := range hostPhaseNames {
		b.WriteString(" " + n + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(hostPhaseNames)) + "\n")
	for e, en := range hostEventNames {
		b.WriteString("| " + en + " |")
		for p := range hostPhaseNames {
			b.WriteString(" " + renderHostCell(streamPhase(p), hostEvent(e)) + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// writesFrame reports whether action a writes to the client, and terminal
// whether it writes its terminal frame.
func writesFrame(a hostAct) (abortOrAck, terminal bool) {
	return a == actAbort || a == actAck, a == actTerminal
}

func TestHostStreamTable(t *testing.T) {
	if len(hostActionNames) != int(actViolate)+1 || len(hostEventNames) != int(evFinish)+1 {
		t.Fatal("the action names do not match the actions")
	}
	t.Run("cells", func(t *testing.T) {
		for p, pn := range hostPhaseNames {
			t.Run(pn, func(t *testing.T) {
				for e, en := range hostEventNames {
					t.Run(en, func(t *testing.T) {
						p, e := streamPhase(p), hostEvent(e)
						// The inputs the cell reads are those that change it
						// alone; under several, it decides by the first set.
						read := 0
						for i := range hostInputNames {
							if hostOutcome(p, e, 1<<i) != hostOutcome(p, e, 0) {
								read |= 1 << i
							}
						}
						for in := 0; in < 8; in++ {
							next, a := hostCell(p, e, in)
							if a == actViolate && next != p {
								t.Fatalf("inputs %03b: a violate cell moved to %s", in, hostPhaseNames[next])
							}
							if first := in & read & -(in & read); hostOutcome(p, e, in) != hostOutcome(p, e, first) {
								t.Fatalf("inputs %03b decide otherwise than input %03b alone", in, first)
							}
						}
						t.Log(renderHostCell(p, e))
					})
				}
			})
		}
	})

	// Every phase is reachable from a hostStream no enrollment holds.
	t.Run("reachable", func(t *testing.T) {
		seen := map[streamPhase]bool{streamOver: true}
		for frontier := []streamPhase{streamOver}; len(frontier) > 0; {
			p := frontier[0]
			frontier = frontier[1:]
			for e := range hostEventNames {
				for in := 0; in < 8; in++ {
					if next, a := hostCell(p, hostEvent(e), in); a != actViolate && !seen[next] {
						seen[next] = true
						frontier = append(frontier, next)
					}
				}
			}
		}
		for p, pn := range hostPhaseNames {
			if !seen[streamPhase(p)] {
				t.Errorf("phase %s is unreachable", pn)
			}
		}
	})

	// over holds an enrollment that has ended: only the reader's ENROLL of a
	// hostStream off the stream table, which opens the next enrollment, leaves
	// it, and nothing reaching it writes a frame.
	t.Run("over absorbs", func(t *testing.T) {
		for e, en := range hostEventNames {
			for in := 0; in < 8; in++ {
				next, a := hostCell(streamOver, hostEvent(e), in)
				w, term := writesFrame(a)
				if hostEvent(e) != evEnroll && a != actViolate && (next != streamOver || w || term) {
					t.Errorf("%s in over (inputs %03b): %s", en, in, renderHostOutcome(streamOver, next, a))
				}
			}
		}
	})

	// Along every sequence of at most eight events, one enrollment writes at
	// most one terminal frame and nothing after it. What a sequence may still
	// write depends on the phase and whether the terminal frame went out, so
	// exploring those states to depth eight covers every sequence.
	t.Run("sequences", func(t *testing.T) {
		type state struct {
			p    streamPhase
			done bool // the terminal frame went out
		}
		level := map[state]bool{{streamOver, false}: true}
		for depth := 0; depth < 8; depth++ {
			nextLevel := map[state]bool{}
			for s := range level {
				for e, en := range hostEventNames {
					for in := 0; in < 8; in++ {
						next, a := hostCell(s.p, hostEvent(e), in)
						if a == actViolate {
							continue
						}
						done := s.done && hostEvent(e) != evEnroll
						w, term := writesFrame(a)
						if done && (w || term) {
							t.Fatalf("%s in %s (inputs %03b) after the terminal frame writes %s", en, hostPhaseNames[s.p], in, renderHostOutcome(s.p, next, a))
						}
						nextLevel[state{next, done || term}] = true
					}
				}
			}
			level = nextLevel
		}
	})

	t.Run("DESIGN.md", func(t *testing.T) {
		compareGrid(t, "host-stream-table", renderHostTable())
	})
}

// violationsCaused counts the stream violations tests cause on purpose.
var violationsCaused atomic.Uint64

// TestMain fails a run in which a host met a stream event its table rules out
// other than on purpose: the hazard tests race hand-offs into cells no unit
// test names.
func TestMain(m *testing.M) {
	code := m.Run()
	if got, want := streamViolations.Load(), violationsCaused.Load(); code == 0 && got != want {
		fmt.Fprintf(os.Stderr, "remote hosts met %d stream events their table rules out, %d of them on purpose\n", got, want)
		code = 1
	}
	os.Exit(code)
}

// TestStreamTableViolationTearsDown drives a cell the table rules out — a
// Released for a role that still plays — through a session: the host counts
// it, leaves the stream where it stands, and tears the session down, which
// ends every enrollment on it as lost.
func TestStreamTableViolationTearsDown(t *testing.T) {
	in := core.NewInstance(duo)
	defer in.Close()
	h := NewHost(in, HostConfig{})
	defer h.Close()
	fw := &frameLog{}
	s := &hostSession{h: h, fw: fw, streams: make(map[uint64]*hostStream)}
	x := openTestStream(s, 1, wire.Enroll{PID: "X", Role: "x"})
	s.offer(x)
	y := openTestStream(s, 3, wire.Enroll{PID: "Y", Role: "y"})
	s.offer(y) // the cast forms: both roles idle
	before := streamViolations.Load()
	x.Released()
	violationsCaused.Add(1)
	if got := streamViolations.Load() - before; got != 1 {
		t.Fatalf("violations counted: %d, want 1", got)
	}
	eventually(t, "the session to be torn down", func() bool {
		s.smu.Lock()
		defer s.smu.Unlock()
		return s.done
	})
	settleStats(t, h)
	for _, st := range []*hostStream{x, y} {
		if st.phase != streamOver || st.ctx.Err() != context.Canceled {
			t.Fatalf("stream %d: phase %s, context %v; want it over and its context ended", st.b.streamID, hostPhaseNames[st.phase], st.ctx.Err())
		}
	}
}

var (
	clientPhaseNames = [...]string{"ended", "offered", "acked"}
	clientEvents     = [...]wire.MsgType{wire.MsgEnroll, wire.MsgOfferAck, wire.MsgComplete, wire.MsgDrain}
)

// clientCell steps a client stream in phase p through event t. The client's
// table has no cell that cannot occur: it acts on a frame or ignores it.
func clientCell(p clientPhase, t wire.MsgType) (next clientPhase, act bool) {
	st := &muxStream{phase: p}
	act = st.step(t)
	return st.phase, act
}

func renderClientCell(p clientPhase, t wire.MsgType) string {
	next, act := clientCell(p, t)
	switch {
	case next != p && act:
		return "→" + clientPhaseNames[next] + " act"
	case next != p:
		return "→" + clientPhaseNames[next]
	case act:
		return "act"
	}
	return "ignore"
}

func renderClientTable() string {
	var b strings.Builder
	b.WriteString("| event \\ phase |")
	for _, n := range clientPhaseNames {
		b.WriteString(" " + n + " |")
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(clientPhaseNames)) + "\n")
	for _, ev := range clientEvents {
		b.WriteString("| " + ev.String() + " |")
		for p := range clientPhaseNames {
			b.WriteString(" " + renderClientCell(clientPhase(p), ev) + " |")
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestClientStreamTable(t *testing.T) {
	terminal := func(ev wire.MsgType) bool { return ev == wire.MsgComplete || ev == wire.MsgDrain }
	t.Run("cells", func(t *testing.T) {
		for p, pn := range clientPhaseNames {
			t.Run(pn, func(t *testing.T) {
				for _, ev := range clientEvents {
					t.Run(ev.String(), func(t *testing.T) {
						t.Log(renderClientCell(clientPhase(p), ev))
					})
				}
			})
		}
	})

	t.Run("reachable", func(t *testing.T) {
		seen := map[clientPhase]bool{clientEnded: true}
		for frontier := []clientPhase{clientEnded}; len(frontier) > 0; {
			p := frontier[0]
			frontier = frontier[1:]
			for _, ev := range clientEvents {
				if next, _ := clientCell(p, ev); !seen[next] {
					seen[next] = true
					frontier = append(frontier, next)
				}
			}
		}
		if len(seen) != len(clientPhaseNames) {
			t.Errorf("reachable phases %v, want all of %v", seen, clientPhaseNames)
		}
	})

	t.Run("ended absorbs", func(t *testing.T) {
		for _, ev := range clientEvents[1:] {
			if next, act := clientCell(clientEnded, ev); next != clientEnded || act {
				t.Errorf("%s in ended: %s", ev.String(), renderClientCell(clientEnded, ev))
			}
		}
	})

	// The conversation acts on at most one OFFER-ACK and one terminal frame
	// per enrollment, and on no OFFER-ACK after the terminal frame.
	t.Run("sequences", func(t *testing.T) {
		type state struct {
			p          clientPhase
			acks, ends int
		}
		level := map[state]bool{{clientEnded, 0, 0}: true}
		for depth := 0; depth < 8; depth++ {
			nextLevel := map[state]bool{}
			for s := range level {
				for _, ev := range clientEvents {
					next, act := clientCell(s.p, ev)
					n := state{next, s.acks, s.ends}
					switch {
					case ev == wire.MsgEnroll:
						n.acks, n.ends = 0, 0
					case act && ev == wire.MsgOfferAck && s.ends > 0:
						t.Fatalf("an OFFER-ACK acted on in %s after the terminal frame", clientPhaseNames[s.p])
					case act && ev == wire.MsgOfferAck:
						n.acks++
					case act && terminal(ev):
						n.ends++
					}
					if n.acks > 1 || n.ends > 1 {
						t.Fatalf("%s in %s acted on twice", ev.String(), clientPhaseNames[s.p])
					}
					nextLevel[n] = true
				}
			}
			level = nextLevel
		}
	})

	t.Run("DESIGN.md", func(t *testing.T) {
		compareGrid(t, "client-stream-table", renderClientTable())
	})
}

// compareGrid fails unless DESIGN.md holds want between the markers
// <!-- name --> and <!-- /name -->.
func compareGrid(t *testing.T, name, want string) {
	t.Helper()
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	open, end := fmt.Sprintf("<!-- %s -->\n", name), fmt.Sprintf("<!-- /%s -->", name)
	doc := string(b)
	i, j := strings.Index(doc, open), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md has no %s grid; the table is:\n%s", name, want)
	}
	if got := doc[i+len(open) : j]; got != want {
		t.Fatalf("DESIGN.md's %s grid differs from the table; the table is:\n%s", name, want)
	}
}
