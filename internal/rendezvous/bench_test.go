package rendezvous

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkSendRecvPair measures one complete rendezvous (send + matching
// receive) between two parties.
func BenchmarkSendRecvPair(b *testing.B) {
	f := New()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if err := f.Send(ctx, "A", "B", "t", i); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Recv(ctx, "B", "A", "t"); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// BenchmarkSelectWide measures a receive committed out of a wide
// alternative (the generalized select's bookkeeping cost).
func BenchmarkSelectWide(b *testing.B) {
	for _, width := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("branches=%d", width), func(b *testing.B) {
			f := New()
			ctx := context.Background()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if err := f.Send(ctx, "S1", "P", "t", i); err != nil {
						return
					}
				}
			}()
			branches := make([]Branch, width)
			for i := range branches {
				branches[i] = Branch{Dir: DirRecv, Peer: Addr(fmt.Sprintf("S%d", i+1)), Tag: "t"}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Do(ctx, "P", branches); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkFanInContention measures n senders funnelling into one receiver.
func BenchmarkFanInContention(b *testing.B) {
	const senders = 8
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for s := 0; s < senders; s++ {
		addr := Addr(fmt.Sprintf("S%d", s))
		go func() {
			for {
				if err := f.Send(ctx, addr, "R", "t", 1); err != nil {
					return
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RecvAny(ctx, "R"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cancel()
	f.Close()
}

// BenchmarkFabricReset times Reset alone (the scope before it is set up off
// the clock) after a scope that used little of the fabric and after one that
// used all of it: `touched` is both the number of shards an op parked in and
// the number of hot slots a termination raised, "all" being every shard and
// every slot. Reset must cost what the scope used; CI holds touched=2 to a
// quarter of touched=all, so a sweep that is constant in the table sizes
// cannot come back unnoticed.
func BenchmarkFabricReset(b *testing.B) {
	f := New()
	// One address pair per shard and one address per hot slot.
	var pairs [numShards][2]Addr
	var dead [numHot]Addr
	for i, found := 0, 0; found < numShards; i++ {
		from, to := Addr(fmt.Sprintf("s%d", i/numShards)), Addr(fmt.Sprintf("r%d", i%numShards))
		sh := f.shardOf(cellKey{from: from, to: to})
		for j := range f.shards {
			if sh == &f.shards[j] && pairs[j][0] == "" {
				pairs[j] = [2]Addr{from, to}
				found++
			}
		}
	}
	for i, found := 0, 0; found < numHot; i++ {
		if a := Addr(fmt.Sprintf("t%d", i)); dead[hotIndex(a)] == "" {
			dead[hotIndex(a)] = a
			found++
		}
	}
	withdrawn, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name          string
		shards, slots int
	}{{"touched=2", 2, 2}, {"touched=all", numShards, numHot}} {
		b.Run(c.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				// A send whose context is done parks, touching its shard and
				// leaving its cell's key behind, and withdraws.
				for _, p := range pairs[:c.shards] {
					f.Send(withdrawn, p[0], p[1], "t", nil) //nolint:errcheck
				}
				for _, a := range dead[:c.slots] {
					f.Terminate(a)
				}
				f.Close()
				start := time.Now()
				f.Reset()
				total += time.Since(start)
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}
