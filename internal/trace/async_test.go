package trace

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
)

func TestAsyncDeliversInOrder(t *testing.T) {
	log := &Log{}
	a := NewAsync(log, 64)
	defer a.Close()
	for i := 1; i <= 40; i++ {
		a.Record(Event{Kind: KindEnroll, Performance: i})
	}
	a.Flush()
	if got := log.Len(); got != 40 {
		t.Fatalf("sink has %d events, want 40", got)
	}
	for i, e := range log.Events() {
		if e.Performance != i+1 {
			t.Fatalf("event %d out of order: performance %d", i, e.Performance)
		}
		if e.Seq != i+1 {
			t.Fatalf("sink did not assign sequence: event %d has seq %d", i, e.Seq)
		}
	}
	if d := a.Dropped(); d != 0 {
		t.Fatalf("dropped %d events, want 0", d)
	}
}

func TestAsyncConcurrentRecorders(t *testing.T) {
	log := &Log{}
	a := NewAsync(log, 1<<12)
	defer a.Close()
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.Record(Event{Kind: KindSend, Performance: w, Role: ids.Role("r")})
			}
		}()
	}
	wg.Wait()
	a.Flush()
	if got, want := log.Len(), workers*each; got != want {
		t.Fatalf("sink has %d events, want %d", got, want)
	}
	if d := a.Dropped(); d != 0 {
		t.Fatalf("dropped %d events, want 0", d)
	}
}

// slowSink delays every Record so the ring can fill up.
type slowSink struct {
	mu    sync.Mutex
	count int
}

func (s *slowSink) Record(Event) {
	time.Sleep(100 * time.Microsecond)
	s.mu.Lock()
	s.count++
	s.mu.Unlock()
}

func TestAsyncDropsWhenFull(t *testing.T) {
	sink := &slowSink{}
	a := NewAsync(sink, 8)
	const total = 5000
	for i := 0; i < total; i++ {
		a.Record(Event{Kind: KindRecv})
	}
	// Flush waits for what the queue accepted, not for what it refused: it
	// returns, and by then every event is in the sink or in the counter.
	a.Flush()
	dropped := int(a.Dropped())
	if dropped == 0 {
		t.Fatalf("expected drops with a slow sink and an 8-slot queue")
	}
	sink.mu.Lock()
	delivered := sink.count
	sink.mu.Unlock()
	if delivered+dropped != total {
		t.Fatalf("after Flush: delivered %d + dropped %d != recorded %d", delivered, dropped, total)
	}
	a.Close()
	if int(a.Dropped()) != dropped || a.DroppedClosed() != 0 {
		t.Fatalf("Close changed the drop counters: %d full, %d closed", a.Dropped(), a.DroppedClosed())
	}
}

func TestAsyncCloseIdempotentAndLateRecord(t *testing.T) {
	log := &Log{}
	a := NewAsync(log, 16)
	a.Record(Event{Kind: KindEnroll})
	a.Close()
	a.Close()
	a.Record(Event{Kind: KindEnroll}) // must not panic; may be dropped
	if got := log.Len(); got != 1 {
		t.Fatalf("sink has %d events, want the 1 recorded before Close", got)
	}
}

func TestAsyncNilSinkAndSizeRounding(t *testing.T) {
	a := NewAsync(nil, 3) // discards into Nop
	defer a.Close()
	for i := 0; i < 10; i++ {
		a.Record(Event{})
	}
	a.Flush()

	// The size is the queue's capacity as given, not rounded up: with the
	// drainer held inside the sink on the first event, three more fit and the
	// rest are dropped.
	sink := &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
	b := NewAsync(sink, 3)
	b.Record(Event{})
	<-sink.entered
	for i := 0; i < 9; i++ {
		b.Record(Event{})
	}
	if got := b.Dropped(); got != 6 {
		t.Fatalf("a 3-slot queue behind a blocked sink dropped %d of 9, want 6", got)
	}
	close(sink.release)
	b.Close()
	if got := sink.n.Load(); got != 4 {
		t.Fatalf("sink saw %d events, want 4", got)
	}
}

// gatedSink announces its first delivery and holds it until released.
type gatedSink struct {
	entered, release chan struct{}
	n                atomic.Uint64
}

func (s *gatedSink) Record(Event) {
	if s.n.Add(1) == 1 {
		close(s.entered)
		<-s.release
	}
}

// BenchmarkAsyncRecord is what one recorded event costs end to end — the
// recorder's send and the drainer's delivery into a sink that costs nothing —
// with every event going through the queue (no sampling): each recorder
// flushes every 512 events, so the queue never fills and nothing is dropped.
// Run with -cpu=1,4 to see it without and with contention.
func BenchmarkAsyncRecord(b *testing.B) {
	a := NewAsync(Nop{}, 1<<12)
	defer a.Close()
	e := Event{Kind: KindSend, Script: "bench", Performance: 1, Role: ids.Role("sender"), Peer: ids.Member("recipient", 3)}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 1; pb.Next(); i++ {
			a.Record(e)
			if i%512 == 0 {
				a.Flush()
			}
		}
	})
	b.ReportMetric(float64(a.Dropped())/float64(b.N), "dropped/op")
}
