package rendezvous

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkSendRecvPair measures one complete rendezvous (send + matching
// receive) between two parties, named by address and by endpoint ID: the
// difference is what the interning front costs.
func BenchmarkSendRecvPair(b *testing.B) {
	ctx := context.Background()
	b.Run("by=name", func(b *testing.B) {
		f := New()
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
	})
	b.Run("by=id", func(b *testing.B) {
		f := New()
		A, B := f.Endpoint("A"), f.Endpoint("B")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				if err := f.SendID(ctx, A, B, "t", i); err != nil {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.RecvID(ctx, B, A, "t"); err != nil {
				b.Fatal(err)
			}
		}
		<-done
	})
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
// the clock) on a fabric of 64 declared endpoints, after a scope that used two
// of them and after one that used all: a used endpoint is one an op parked
// under and a termination heated. Reset must cost what the scope used; CI
// holds used=2 to a quarter of used=all, so a sweep of the whole table cannot
// come back unnoticed.
func BenchmarkFabricReset(b *testing.B) {
	const endpoints = 64
	addrs := make([]Addr, endpoints)
	for i := range addrs {
		addrs[i] = Addr(fmt.Sprintf("e%d", i))
	}
	f := New()
	f.Declare(addrs...)
	withdrawn, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		used int
	}{{"used=2", 2}, {"used=all", endpoints}} {
		b.Run(c.name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				// A send whose context is done parks in its target's inbox
				// and withdraws.
				for j := 0; j < c.used; j++ {
					f.SendID(withdrawn, ID((j+1)%c.used), ID(j), "t", nil) //nolint:errcheck
					f.TerminateID(ID(j))
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
