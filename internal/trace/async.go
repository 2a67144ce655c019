package trace

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/scriptabs/goscript/internal/metrics"
)

// Always-on drop accounting, split by cause (see Dropped / DroppedClosed).
var (
	droppedFullTotal   = metrics.Get(metrics.TraceDroppedFull)
	droppedClosedTotal = metrics.Get(metrics.TraceDroppedClosed)
)

// Async decouples event recording from event storage: Record makes a
// non-blocking send on a bounded queue (a buffered channel) and returns
// immediately, while a single background goroutine drains the queue into the
// wrapped sink tracer. The script runtime records events while holding the
// instance lock; wrapping a heavyweight sink (Log, a JSON writer, ...) in an
// Async keeps that critical section short.
//
// Drop semantics: when the queue is full — or the tracer has been closed —
// Record drops the event and increments the matching drop counter (Dropped
// for queue-full, DroppedClosed for post-Close) instead of blocking the hot
// path or resurrecting a stopped drainer. Dropped events are simply missing
// from the sink; the events that are delivered preserve their recording
// order (the queue is FIFO). Tests that need a complete log should either use
// the sink directly (all Tracers remain synchronous and safe for concurrent
// use) or call Flush at quiescent points and check Dropped() == 0.
type Async struct {
	sink Tracer
	// queue holds events behind pointers: it lives for the tracer's whole
	// lifetime, so an idle queue costs the collector one word per slot, not an
	// Event. The price is one heap copy per recorded event — paid only for
	// events that pass sampling, where the sink write dominates anyway.
	queue chan *Event

	enq atomic.Uint64 // events the queue accepted
	deq atomic.Uint64 // events the drainer delivered
	// droppedFull counts queue-full drops, droppedClosed post-Close drops;
	// the split matters because the first means "size the queue up or slow
	// the producers" while the second is normal shutdown accounting.
	droppedFull   atomic.Uint64
	droppedClosed atomic.Uint64

	// stopped and recorders fence Record against Close: Record registers in
	// recorders for its whole critical section and bails out (counting the
	// event as dropped) once stopped is set; Close sets stopped and then
	// waits for recorders to reach zero before closing the queue, so no send
	// meets a closed channel and the drainer's last pass sees every event
	// that was accepted.
	stopped   atomic.Bool
	recorders atomic.Int64

	mu     sync.Mutex
	cond   *sync.Cond // signalled by the drainer as deq advances
	closed bool
	wg     sync.WaitGroup
}

var _ Tracer = (*Async)(nil)

// DefaultAsyncSize is the queue capacity used when NewAsync is given a
// non-positive size: enough to absorb bursts while keeping the always-on
// footprint (and a small-heap process's GC bill) negligible. Pass an explicit
// size to trade memory for burst headroom.
const DefaultAsyncSize = 1 << 10

// NewAsync wraps sink in an asynchronous tracer whose queue holds size events
// (<= 0 selects DefaultAsyncSize). Call Close to drain and stop the
// background goroutine.
func NewAsync(sink Tracer, size int) *Async {
	if sink == nil {
		sink = Nop{}
	}
	if size <= 0 {
		size = DefaultAsyncSize
	}
	a := &Async{sink: sink, queue: make(chan *Event, size)}
	a.cond = sync.NewCond(&a.mu)
	a.wg.Add(1)
	go a.drain()
	return a
}

// Record enqueues e without blocking. If the queue is full the event is
// dropped and counted in Dropped(); if the tracer has been closed it is
// dropped and counted in DroppedClosed(). Safe for
// concurrent use by any number of recorders, including concurrently with
// Close: a Record that races Close either delivers its event to the sink
// before Close returns or counts it as dropped — it is never silently lost
// and never touches the queue after Close has closed it.
func (a *Async) Record(e Event) {
	a.recorders.Add(1)
	defer a.recorders.Add(-1)
	if a.stopped.Load() {
		a.droppedClosed.Add(1)
		droppedClosedTotal.Inc()
		return
	}
	select {
	case a.queue <- &e:
		a.enq.Add(1)
	default:
		a.droppedFull.Add(1)
		droppedFullTotal.Inc()
	}
}

// drain is the single consumer: it moves queued events into the sink until
// Close closes the queue, and wakes Flush waiters each time it has emptied it.
func (a *Async) drain() {
	defer a.wg.Done()
	for e := range a.queue {
		a.sink.Record(*e)
		a.deq.Add(1)
		if len(a.queue) == 0 {
			a.wake()
		}
	}
	a.wake() // a Flush that saw closed set is waiting for this exit
}

func (a *Async) wake() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Flush blocks until every event enqueued before the call has been delivered
// to the sink (or dropped). It does not wait for events recorded
// concurrently with the flush. A Flush racing (or following) Close waits for
// the drainer's last pass to finish, so a Record→Close→Flush caller
// observes a complete sink: every event accepted before Close has reached
// the sink by the time Flush returns.
func (a *Async) Flush() {
	target := a.enq.Load()
	a.mu.Lock()
	for a.deq.Load() < target && !a.closed {
		a.cond.Wait()
	}
	closed := a.closed
	a.mu.Unlock()
	if closed {
		// The wait loop exited because Close began, but the drainer may still
		// be delivering accepted events; returning now would let the caller
		// read the sink mid-pass. Wait for drainer exit — outside the mutex,
		// which the drainer needs for its own final broadcast.
		a.wg.Wait()
	}
}

// Dropped returns the number of events discarded because the queue was full.
// Events discarded because the tracer was already closed are counted
// separately in DroppedClosed.
func (a *Async) Dropped() uint64 { return a.droppedFull.Load() }

// DroppedClosed returns the number of events discarded because they were
// recorded after the tracer was closed.
func (a *Async) DroppedClosed() uint64 { return a.droppedClosed.Load() }

// Close drains outstanding events into the sink and stops the background
// goroutine. A Record concurrent with Close either gets its event delivered
// or counted as dropped; Records issued after Close returns are guaranteed
// no-ops counted in DroppedClosed(). Close is idempotent.
func (a *Async) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.mu.Unlock()
	// Fence out recorders, then wait for in-flight ones to finish their send:
	// after this loop no goroutine will touch the queue again, so it can be
	// closed under the drainer, whose range then ends once it is empty.
	a.stopped.Store(true)
	for a.recorders.Load() != 0 {
		runtime.Gosched()
	}
	close(a.queue)
	a.wg.Wait()
}
