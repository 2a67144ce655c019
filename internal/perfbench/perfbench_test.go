package perfbench

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
)

// TestResidentFailureReachesForeground: a resident that is refused (here: a
// recipient the script does not have) must fail the foreground enrollment
// that would otherwise wait for it for ever, and Stop must name it; a cast
// that is all there performs, and Stop is silent.
func TestResidentFailureReachesForeground(t *testing.T) {
	in := core.NewInstance(patterns.StarBroadcast(2))
	defer in.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	sender := core.Enrollment{PID: "T", Role: ids.Role(patterns.RoleSender), Args: []any{1}}

	r := Keep(ctx, in.Enroll, Cast(2, "R", Recipient))
	if _, err := r.Enroll(sender); err != nil {
		t.Fatalf("full cast: %v", err)
	}
	if err := r.Stop(); err != nil {
		t.Fatalf("Stop after a clean run: %v", err)
	}

	r = Keep(ctx, in.Enroll, Cast(2, "R", func(i int) ids.RoleRef { return Recipient(i + 1) }))
	_, err := r.Enroll(sender)
	if !errors.Is(err, core.ErrUnknownRole) {
		t.Fatalf("foreground err = %v, want the refused resident's", err)
	}
	if err := r.Stop(); !errors.Is(err, core.ErrUnknownRole) {
		t.Fatalf("Stop = %v, want the refused resident's error", err)
	}
}

// TestDriveAccounting pins the fixed-window drive E8, E11 and E12 share:
// every attempt is counted exactly once as completed or failed, throughput
// is completions over the window, and the drive stops issuing ops when the
// window closes — it returns within the window plus the op in flight.
func TestDriveAccounting(t *testing.T) {
	const (
		clients = 4
		window  = 100 * time.Millisecond
		op      = 5 * time.Millisecond
	)
	var calls atomic.Uint64
	var pids sync.Map
	start := time.Now()
	st := drive(clients, window, func(pid ids.PID) error {
		pids.Store(pid, true)
		time.Sleep(op)
		if calls.Add(1)%5 == 0 {
			return errors.New("shed")
		}
		return nil
	})
	elapsed := time.Since(start)

	if st.Attempted != calls.Load() || st.Attempted != st.Completed+st.Failed {
		t.Fatalf("attempted %d, completed %d + failed %d, enroll calls %d", st.Attempted, st.Completed, st.Failed, calls.Load())
	}
	if want := calls.Load() / 5; st.Failed != want || st.Completed == 0 {
		t.Fatalf("failed = %d, want %d (every fifth call); completed = %d", st.Failed, want, st.Completed)
	}
	if want := float64(st.Completed) / window.Seconds(); st.Throughput != want {
		t.Fatalf("throughput = %v, want %v", st.Throughput, want)
	}
	if st.P99LatencyMS < float64(op.Milliseconds()) {
		t.Fatalf("p99 = %vms, below the %v every op takes", st.P99LatencyMS, op)
	}
	// Generous slack for a loaded CI box; a drive that kept going (or waited
	// on something other than its clients) overshoots by far more.
	if elapsed < window || elapsed > window+op+250*time.Millisecond {
		t.Fatalf("drive took %v, want the %v window plus at most one %v op", elapsed, window, op)
	}
	distinct := 0
	pids.Range(func(_, _ any) bool { distinct++; return true })
	if distinct != clients {
		t.Fatalf("%d distinct client PIDs, want %d", distinct, clients)
	}
}

func TestP99KnownSet(t *testing.T) {
	if got := p99(nil); got != 0 {
		t.Fatalf("p99 of nothing = %v, want 0", got)
	}
	if got := p99([]time.Duration{7}); got != 7 {
		t.Fatalf("p99 of one sample = %v, want it", got)
	}
	// 1..200 in descending order: rank ⌊0.99·200⌋ = 198 of the sorted set.
	set := make([]time.Duration, 200)
	for i := range set {
		set[i] = time.Duration(200-i) * time.Millisecond
	}
	if got := p99(set); got != 199*time.Millisecond {
		t.Fatalf("p99 of 1..200ms = %v, want 199ms", got)
	}
}

// TestFleetResultHeadline checks E11's headline computation, including the
// point CI's gate depends on: a single-host arm that completed nothing must
// still produce a file (zero scaling, no baseline) so the gate prints
// "scaled below 2.5x" — 1e9/0 is +Inf, which encoding/json refuses.
func TestFleetResultHeadline(t *testing.T) {
	spec := Spec{ID: "E11", Name: "fleet-goodput-scaling"}

	res := fleetResult(spec, []FleetPoint{
		{Hosts: 1, Completed: 600, Throughput: 1000},
		{Hosts: 4, Completed: 2400, Throughput: 4000},
	})
	if res.Fleet[0].ScalingVsSingle != 1 || res.Fleet[1].ScalingVsSingle != 4 {
		t.Fatalf("scaling = %v, %v; want 1, 4", res.Fleet[0].ScalingVsSingle, res.Fleet[1].ScalingVsSingle)
	}
	if res.Iterations != 2400 || res.NsPerOp != 250_000 || res.BaselineNsPerOp != 1_000_000 || res.DeltaPct != 75 {
		t.Fatalf("headline = %+v", res)
	}

	res = fleetResult(spec, []FleetPoint{
		{Hosts: 1},
		{Hosts: 4, Completed: 2400, Throughput: 4000},
	})
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("zero-throughput single-host point must still marshal: %v", err)
	}
	if res.BaselineNsPerOp != 0 || res.DeltaPct != 0 || res.Fleet[1].ScalingVsSingle != 0 {
		t.Fatalf("no single-host goodput means no baseline and no scaling, got %s", data)
	}
}

// TestSuiteIDs pins which measurements the acceptance suite owns.
func TestSuiteIDs(t *testing.T) {
	want := []string{"E4", "E5", "E6", "E7", "E8", "E10", "E11", "E12"}
	specs := Suite()
	if len(specs) != len(want) {
		t.Fatalf("suite has %d specs, want %d", len(specs), len(want))
	}
	for i, s := range specs {
		if s.ID != want[i] || s.Run == nil {
			t.Fatalf("spec %d = %s (run set: %v), want %s", i, s.ID, s.Run != nil, want[i])
		}
	}
}
