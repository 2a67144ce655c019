// Package monx implements the paper's third host embedding: scripts with
// monitors (Section IV, Figure 12). Each role owns a mailbox; inter-role
// sends deposit into the peer's mailbox and receives take from one's own,
// with "WAIT UNTIL" blocking. A monitor-based supervisor implements
// immediate initiation and termination — which the paper says a monitor
// supervisor does "most easily" — and the successive-activations rule.
//
// Two packagings are provided, mirroring the paper's discussion:
//
//   - the default multiple-monitor scheme ("our script solution follows the
//     multiple monitor scheme, but with the script providing the top-level
//     packaging"): one monitor per mailbox, so different mailboxes are
//     accessed concurrently;
//   - WithSharedMonitor, the single-black-box scheme, where "all access to
//     any mailbox is serialized" — kept so the cost of the unified
//     abstraction is measurable (experiment E10).
package monx

import (
	"errors"
	"fmt"
	"sync"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/monitor"
)

// ErrUnsupported reports a script feature the monitor embedding cannot
// express (open-ended families; Select with send branches — a monitor
// cannot wait on two monitors at once).
var ErrUnsupported = errors.New("monx: feature not supported by the monitor embedding")

// Option configures a Host.
type Option func(*config)

type config struct {
	semantics monitor.Semantics
	capacity  int
	shared    bool
}

// WithSemantics selects the condition discipline (default Hoare).
func WithSemantics(s monitor.Semantics) Option {
	return func(c *config) { c.semantics = s }
}

// WithCapacity sets the mailbox capacity (default 1, as in Figure 12's
// one-slot mailbox with a full/empty status).
func WithCapacity(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.capacity = n
		}
	}
}

// WithSharedMonitor houses all mailboxes in a single monitor, serializing
// every access (the paper's "unified abstraction" packaging).
func WithSharedMonitor() Option {
	return func(c *config) { c.shared = true }
}

// Host is the monitor-side embedding of one script instance.
type Host struct {
	def       core.Definition
	roles     []ids.RoleRef
	mailboxes map[ids.RoleRef]*mailbox

	sup    *monitor.M
	filled map[ids.RoleRef]bool
	done   map[ids.RoleRef]bool
	perf   int
}

// New prepares the embedding of def. Open-ended families are rejected;
// critical role sets are not supported (a performance completes only when
// every declared role has enrolled and finished), matching the paper's
// Figure 12 assumption that the critical set is the full role collection.
func New(def core.Definition, opts ...Option) (*Host, error) {
	if def.HasOpenFamilies() {
		return nil, fmt.Errorf("%w: open-ended families", ErrUnsupported)
	}
	cfg := config{semantics: monitor.Hoare, capacity: 1}
	for _, o := range opts {
		o(&cfg)
	}
	h := &Host{
		def:       def,
		roles:     def.Roles(),
		mailboxes: make(map[ids.RoleRef]*mailbox),
		sup:       monitor.New(cfg.semantics),
		filled:    make(map[ids.RoleRef]bool),
		done:      make(map[ids.RoleRef]bool),
	}
	var sharedM *monitor.M
	if cfg.shared {
		sharedM = monitor.New(cfg.semantics)
	}
	for _, r := range h.roles {
		m := sharedM
		if m == nil {
			m = monitor.New(cfg.semantics)
		}
		h.mailboxes[r] = &mailbox{m: m, capacity: cfg.capacity}
	}
	return h, nil
}

// Enroll plays the given role for one performance: it waits (WAIT UNTIL)
// for a performance in which the role is free, runs the body in the calling
// goroutine — the monitor embedding, unlike the Ada one, preserves the
// paper's continuation property — and returns the out parameters.
//
// Monitors have no cancellation; an enrollment whose partners never arrive
// blocks, exactly as the paper's monitor semantics would.
func (h *Host) Enroll(role ids.RoleRef, args []any) ([]any, error) {
	body, err := h.def.Body(role)
	if err != nil {
		return nil, err
	}
	var perf int
	h.sup.Enter()
	h.sup.WaitUntil(func() bool { return !h.filled[role] })
	h.filled[role] = true
	if h.countFilled() == 1 {
		h.perf++ // first enrollment activates the performance (immediate initiation)
	}
	perf = h.perf
	h.sup.Leave()

	rc := &hostCtx{ParamBag: core.ParamBag{In: args}, host: h, role: role, perf: perf}
	bodyErr := core.RunBody(body, rc)

	h.sup.Enter()
	h.done[role] = true
	if len(h.done) == len(h.roles) {
		// All roles finished: the performance ends and the next may form.
		h.filled = make(map[ids.RoleRef]bool)
		h.done = make(map[ids.RoleRef]bool)
		for _, mb := range h.mailboxes {
			mb.clear()
		}
	}
	h.sup.Leave()

	if bodyErr != nil {
		return rc.Out, &core.RoleError{Script: h.def.Name(), Role: role, Err: bodyErr}
	}
	return rc.Out, nil
}

func (h *Host) countFilled() int { return len(h.filled) }

// Monitors returns how many monitors guard the host's mailboxes: one per
// mailbox in the default packaging, one in all under WithSharedMonitor. It is
// what the packaging *is* — experiment E10 judges this, not a stopwatch.
func (h *Host) Monitors() int {
	distinct := make(map[*monitor.M]bool, len(h.mailboxes))
	for _, mb := range h.mailboxes {
		distinct[mb.m] = true
	}
	return len(distinct)
}

// Performances returns the number of performances activated so far.
func (h *Host) Performances() int {
	h.sup.Enter()
	defer h.sup.Leave()
	return h.perf
}

// message is one mailbox entry.
type message struct {
	from ids.RoleRef
	tag  string
	val  any
}

// mailbox is Figure 12's mailbox monitor, generalized to a queue of the
// configured capacity. Several mailboxes may share one monitor (the
// single-monitor packaging); the mutex only guards the queue slice against
// the clear() done by another role's release path.
type mailbox struct {
	m        *monitor.M
	capacity int

	mu    sync.Mutex
	queue []message
}

func (mb *mailbox) len() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue)
}

func (mb *mailbox) push(m message) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.queue = append(mb.queue, m)
}

func (mb *mailbox) takeMatch(match func(message) bool) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.queue {
		if match(m) {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			return m, true
		}
	}
	return message{}, false
}

func (mb *mailbox) clear() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.queue = nil
}

// put is Figure 12's PUBLIC PROCEDURE put: WAIT UNTIL there is room, then
// deposit.
func (mb *mailbox) put(m message) {
	mb.m.Enter()
	defer mb.m.Leave()
	mb.m.WaitUntil(func() bool { return mb.len() < mb.capacity })
	mb.push(m)
}

// get is Figure 12's PUBLIC FUNCTION get, generalized to take the first
// message satisfying match.
func (mb *mailbox) get(match func(message) bool) message {
	mb.m.Enter()
	defer mb.m.Leave()
	var got message
	mb.m.WaitUntil(func() bool {
		m, ok := mb.takeMatch(match)
		if ok {
			got = m
		}
		return ok
	})
	return got
}
