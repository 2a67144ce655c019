package rendezvous

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitingSnapshotObservesBothLanes pins WaitingIDs' contract: an op
// blocked in the slow lane (multi-branch Do) and one parked in a fast-lane
// exchange cell both appear in a single snapshot.
func TestWaitingSnapshotObservesBothLanes(t *testing.T) {
	f := New()
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // slow lane: a two-branch alternative can never take the fast path
		defer wg.Done()
		_, _ = f.Do(ctx, "slowpoke", []Branch{
			{Dir: DirRecv, Peer: "nobody1"},
			{Dir: DirRecv, Peer: "nobody2"},
		})
	}()
	go func() { // fast lane: a directed single-branch send parks in a cell
		defer wg.Done()
		_ = f.Send(ctx, "fastie", "absent", "t", 1)
	}()

	slow, fast := f.Endpoint("slowpoke"), f.Endpoint("fastie")
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := f.WaitingIDs()
		if slices.Contains(snap, slow) && slices.Contains(snap, fast) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never saw both lanes: %v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
	// After withdrawal the snapshot must drain back to empty.
	deadline = time.Now().Add(5 * time.Second)
	for len(f.WaitingIDs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot still non-empty after withdrawal: %v", f.WaitingIDs())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitingSnapshotRace hammers the snapshot from several goroutines while
// pairs of addresses rendezvous through both lanes, asserting (under -race)
// that the accessor is safe concurrently with parks, commits, escalations
// and terminations, and that it only ever reports endpoints that exist.
func TestWaitingSnapshotRace(t *testing.T) {
	f := New()
	defer f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const pairs = 8
	valid := map[ID]bool{}
	for p := 0; p < pairs; p++ {
		valid[f.Endpoint(Addr(fmt.Sprintf("S%d", p)))] = true
		valid[f.Endpoint(Addr(fmt.Sprintf("R%d", p)))] = true
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for p := 0; p < pairs; p++ {
		snd := Addr(fmt.Sprintf("S%d", p))
		rcv := Addr(fmt.Sprintf("R%d", p))
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				if err := f.Send(ctx, snd, rcv, "t", i); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if _, err := f.Recv(ctx, rcv, snd, "t"); err != nil {
					return
				}
			}
		}()
	}
	var snaps atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				for _, id := range f.WaitingIDs() {
					if !valid[id] {
						t.Errorf("snapshot reported unknown endpoint %d", id)
						return
					}
				}
				snaps.Add(1)
			}
		}()
	}
	// Let the workload run its window, then release any straggler blocked
	// with no surviving partner.
	time.Sleep(time.Until(stop))
	cancel()
	wg.Wait()
	if snaps.Load() == 0 {
		t.Fatal("snapshot goroutines never ran")
	}
}
