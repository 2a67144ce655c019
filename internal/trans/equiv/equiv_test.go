package equiv

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/trans/monx"
)

// hosts gives the four runners one shape.
var hosts = map[string]func(context.Context, core.Definition, []Part, int) (Outs, error){
	"native": func(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, error) {
		return Native(ctx, def, cast, rounds)
	},
	"cspx": func(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, error) {
		outs, _, err := CSP(ctx, def, cast, rounds)
		return outs, err
	},
	"adax": func(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, error) {
		outs, _, err := Ada(ctx, def, cast, rounds)
		return outs, err
	},
	"monx": func(ctx context.Context, def core.Definition, cast []Part, rounds int) (Outs, error) {
		outs, _, err := Monitors(ctx, def, cast, rounds, monx.WithCapacity(4))
		return outs, err
	},
}

// scenario is one definition plus its cast and the expected outputs of each
// of two rounds.
type scenario struct {
	name string
	def  core.Definition
	cast []Part
	want Outs
}

func scenarios() []scenario {
	broadcast := func(n int, values ...any) ([]Part, Outs) {
		cast := Broadcast(n, func(round int) any { return values[round] })
		want := Outs{cast[0].Role: {nil, nil}}
		for _, p := range cast[1:] {
			want[p.Role] = [][]any{{values[0]}, {values[1]}}
		}
		return cast, want
	}
	starCast, starWant := broadcast(3, "S", "T")
	pipeCast, pipeWant := broadcast(3, 42, 43)

	// sumChain: a[1] sends its arg to a[2], which adds its own and reports.
	sumChain := core.NewScript("sum_chain").
		Family("a", 2, func(rc core.Ctx) error {
			if rc.Index() == 1 {
				return rc.Send(ids.Member("a", 2), rc.Arg(0))
			}
			v, err := rc.Recv(ids.Member("a", 1))
			if err != nil {
				return err
			}
			rc.SetResult(0, v.(int)+rc.Arg(0).(int))
			return nil
		}).
		MustBuild()

	return []scenario{
		{"star_broadcast", patterns.StarBroadcast(3), starCast, starWant},
		{"pipeline_broadcast", patterns.PipelineBroadcast(3), pipeCast, pipeWant},
		{"sum_chain", sumChain, []Part{
			{Role: ids.Member("a", 1), Args: func(round int) []any { return []any{10 + round} }},
			{Role: ids.Member("a", 2), Args: func(int) []any { return []any{32} }},
		}, Outs{
			ids.Member("a", 1): {nil, nil},
			ids.Member("a", 2): {{42}, {43}},
		}},
	}
}

// TestObservationalEquivalenceAcrossHosts is the Section IV theorem as a
// test: for each scenario, all four runtimes produce the same role outputs,
// in a first performance and in the one that follows it.
func TestObservationalEquivalenceAcrossHosts(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, sc := range scenarios() {
		for hostName, run := range hosts {
			t.Run(sc.name+"/"+hostName, func(t *testing.T) {
				got, err := run(ctx, sc.def, sc.cast, 2)
				if err != nil {
					t.Fatal(err)
				}
				for role, want := range sc.want {
					for round := range want {
						g := got[role][round]
						if len(g) == 0 && len(want[round]) == 0 {
							continue
						}
						if !reflect.DeepEqual(g, want[round]) {
							t.Errorf("role %s round %d produced %v, want %v", role, round, g, want[round])
						}
					}
				}
			})
		}
	}
}

// TestParticipantErrorReachesCaller: a role whose body fails must fail the
// run, at once, on every host. On the monitors the partner it strands can
// never be cancelled and must not be waited for, so the failure reported is
// the role's own; elsewhere the stranded partner fails too and either error
// may be first.
func TestParticipantErrorReachesCaller(t *testing.T) {
	boom := errors.New("boom")
	def := core.NewScript("half_exchange").
		Role("left", func(rc core.Ctx) error {
			_, err := rc.Recv(ids.Role("right"))
			return err
		}).
		Role("right", func(rc core.Ctx) error { return boom }).
		MustBuild()
	cast := []Part{{Role: ids.Role("left")}, {Role: ids.Role("right")}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for hostName, run := range hosts {
		t.Run(hostName, func(t *testing.T) {
			_, err := run(ctx, def, cast, 1)
			if err == nil || ctx.Err() != nil {
				t.Fatalf("err = %v (ctx: %v), want a prompt failure", err, ctx.Err())
			}
			if hostName == "monx" && !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the role's own failure", err)
			}
		})
	}
}
