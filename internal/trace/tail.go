package trace

import "sync"

// Tail is an in-memory Tracer that retains the most recent events only: a
// long-running process can keep one behind its tracer for as long as it lives
// and hold a bounded amount, where a Log grows with every event. Sequence
// numbers count every event recorded, so a gap at the front of Events shows
// how much has been overwritten.
type Tail struct {
	mu     sync.Mutex
	max    int
	events []Event // a ring once len(events) == max
	oldest int     // index of the oldest event once the ring is full
	nextID int
}

var _ Tracer = (*Tail)(nil)

// NewTail returns a Tail retaining the last n events (at least one).
func NewTail(n int) *Tail { return &Tail{max: max(n, 1)} }

// Record implements Tracer, overwriting the oldest event once max are held.
func (t *Tail) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	e.Seq = t.nextID
	if len(t.events) < t.max {
		t.events = append(t.events, e)
		return
	}
	t.events[t.oldest] = e
	t.oldest = (t.oldest + 1) % t.max
}

// Events returns a copy of the retained events, oldest first.
func (t *Tail) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.oldest:]...)
	return append(out, t.events[:t.oldest]...)
}
