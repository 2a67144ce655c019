package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/ctxwatch"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// Always-on performance lifecycle counters (see internal/metrics).
var (
	perfStartedTotal   = metrics.Get(metrics.PerformancesStarted)
	perfCompletedTotal = metrics.Get(metrics.PerformancesCompleted)
	perfAbortedTotal   = metrics.Get(metrics.PerformancesAborted)
)

// Enrollment is a request by a process to play a role in an instance.
type Enrollment struct {
	// PID is the enrolling process's identity. Required.
	PID ids.PID
	// Role is the role (or family member) to play.
	Role ids.RoleRef
	// Args are the actual data parameters bound to the role's formal
	// parameters at enrollment time.
	Args []any
	// With are partner constraints: for each named role, the processes
	// acceptable in it (partners-named enrollment). Nil or empty for
	// partners-unnamed enrollment; a multi-element set expresses
	// "either A or B"; naming only some roles is partial naming.
	With map[ids.RoleRef]ids.PIDSet
	// Deadline, when non-zero, bounds the performance this enrollment takes
	// part in: if the performance has not terminated by the deadline, the
	// runtime aborts it (blocked co-performers unwind with an *AbortError
	// wrapping ErrPerformanceAborted). The deadline arms only once the offer
	// is assigned to a performance; a pending offer is bounded by its
	// context instead. See also WithPerformanceDeadline for a per-instance
	// bound on every performance.
	Deadline time.Time
	// Body, when non-nil, overrides the definition's body for this
	// enrollment. The paper makes a role body "a logical continuation of the
	// enrolling process"; Body lets the enrolling process actually supply
	// that continuation. Enroll runs it; a holder of an offer placed with
	// Offer hands its body to Perform instead (the remote host's is the
	// bridge that proxies Ctx operations to the client process, where the
	// real body runs).
	Body RoleBody
	// TraceID, when non-zero, is a trace ID minted by the enrolling side
	// (typically a remote client whose own sampler chose to trace the call).
	// If this enrollment initiates a performance, the performance adopts the
	// ID instead of consulting the instance's sampler, so both sides of the
	// wire record events on the same timeline.
	TraceID trace.TraceID
}

// Result reports a completed enrollment.
type Result struct {
	// Performance is the 1-based performance number the process took part in.
	Performance int
	// Role is the role that was played.
	Role ids.RoleRef
	// Values are the result (out) parameters set by the role body.
	Values []any
	// TraceID is the performance's trace ID when it was sampled for tracing,
	// zero otherwise.
	TraceID trace.TraceID
}

// Option configures an Instance.
type Option func(*Instance)

// WithTracer attaches a tracer that observes the instance's events.
// Events are recorded while the instance lock is held, so heavyweight sinks
// should be wrapped in a trace.Async to keep the critical section short.
func WithTracer(t trace.Tracer) Option {
	return func(in *Instance) {
		if t != nil {
			in.tracer = t
			_, in.nopTrace = t.(trace.Nop)
		}
	}
}

// WithSampler installs a trace sampler: at each performance's initiation the
// sampler decides, once, whether that performance's events are recorded. A
// sampled performance gets a trace ID stamped on all its events (and echoed
// in Result.TraceID); an unsampled one records nothing, so a 0.1% sampler
// makes tracing affordable at full load. An enrollment carrying its own
// TraceID (a remote client that already sampled the call) bypasses the
// sampler — the performance is traced under the adopted ID. Without a
// sampler every performance is traced, preserving the record-everything
// behavior tests rely on.
func WithSampler(s trace.Sampler) Option {
	return func(in *Instance) { in.sampler = s }
}

// WithFairness selects how contention among enrollments is resolved:
// match.FIFO (order of arrival, as in Ada) or match.Arbitrary with a seed
// (no fairness, as in CSP). The default is FIFO.
func WithFairness(f match.Fairness, seed int64) Option {
	return func(in *Instance) {
		in.fairness = f
		in.seed = seed
	}
}

// WithPerformanceDeadline bounds every performance of the instance: a
// performance that has not terminated within d of starting is aborted — the
// paper's embeddings block forever on a partner that never communicates,
// and this is the runtime's answer to that open problem. Only the wedged
// performance is reclaimed: its blocked co-performers unwind with an
// *AbortError (wrapping ErrPerformanceAborted) naming the culprit role, and
// the instance then accepts the next cast. The timer is armed lazily, when
// a performance actually starts; d <= 0 disables the bound. Individual
// enrollments can tighten the bound with Enrollment.Deadline.
func WithPerformanceDeadline(d time.Duration) Option {
	return func(in *Instance) {
		if d > 0 {
			in.perfDeadline = d
		}
	}
}

// Instance is one runtime instance of a script definition. Create several
// instances for concurrent independent performances of the same generic
// script (or use a Pool in the root package, which multiplexes enrollments
// across instances). An Instance must be closed when no longer needed.
//
// Scheduling is event-driven: the goroutine whose action changes the
// coordination state (an enrollment arriving, a role body finishing, an
// offer being withdrawn) runs the coordinator step itself while it holds the
// lock, and tells exactly the holders whose state changed, through the
// Handoff each offer was placed with — an assigned offer's holder, the
// offers Close and Drain turn away, the roles held until the performance
// ends. There is no broadcast and no coordinator goroutine (the paper's
// requirement that a script needs no extra process).
type Instance struct {
	def      Definition
	tracer   trace.Tracer
	nopTrace bool
	// sampler, when non-nil, decides per performance (at initiation) whether
	// its events are recorded; traces is the bounded table of live traced
	// performances (see WithSampler), capped at trace.DefaultMaxLiveTraces:
	// when it is full, newly sampled performances run untraced rather than
	// holding unbounded state.
	sampler  trace.Sampler
	traces   *trace.Table
	fairness match.Fairness
	seed     int64
	// perfDeadline bounds every performance (WithPerformanceDeadline);
	// 0 = unbounded.
	perfDeadline time.Duration
	// faults, when non-nil, injects latency, dropped wakeups, and spurious
	// cancellations (WithFaultInjection; see internal/chaos).
	faults FaultInjector

	// Formation tables: what forming a cast needs and the definition fixes,
	// computed once by NewInstance instead of once per performance. The
	// definition is immutable after Build and the tables are only read, so
	// every performance shares them.
	//
	// roles is the closed role universe — scalar roles and the members of
	// fixed-size families — in ids order; a role's index in it is its slot,
	// and its endpoint in the instance's fabric. base maps a role or family
	// name to the slot of the scalar or of member 1 (open families have no
	// entry: their members have no slot). table is the matcher's compilation of
	// the roles and of the effective critical sets — the declared ones, or the
	// closed universe when none were declared: open families never take part in
	// the default — and the one description of the sets the instance holds.
	roles []ids.RoleRef
	base  map[string]int
	table *match.Table

	// load counts enrollments in flight (pending, playing, or held), for
	// Pool dispatch. Kept outside mu so Load() never contends.
	load atomic.Int64
	// pendingCount mirrors len(pending) in an atomic, so admission control
	// (the remote host sheds offers when the backlog is deep) can consult it
	// on every ENROLL without contending with the scheduler.
	pendingCount atomic.Int64
	// watch holds the shared contexts of the enrollments Enroll has parked,
	// each distinct one watched once (see Instance.wait), and the fabric's
	// blocking calls under them; closed with the instance.
	watch ctxwatch.Watch

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{} // closed with the instance; wakes a Drain waiting for idleness
	// draining is set by Drain: no new offers are admitted (they fail with
	// ErrDraining), the in-flight performance runs to completion, then the
	// instance closes.
	draining bool
	// idleCh, when non-nil, is closed (and nilled) the moment a draining
	// instance becomes idle (no active performance, no pending offers);
	// Drain waiters allocate it lazily.
	idleCh    chan struct{}
	nextOffer uint64
	pending   []*enrollState
	// owed lists, in order, the hand-offs owed once mu is dropped, and dues
	// the outcomes the fabric's calls under mu delivered to posted ops (see
	// unlock).
	owed      []owedHandoff
	dues      rendezvous.Owed
	active    *performance
	perfCount int
	// fabric is where the instance's performances communicate, one after the
	// other: the closed roles are declared in it in slot order, so a role's
	// slot is its endpoint ID. A performance that ends by abort keeps the
	// fabric (a wedged body may call into it arbitrarily late); the field is
	// then nil and the next performance builds another.
	fabric *rendezvous.Fabric

	// pendingBySlot counts pending offers per closed role and pendingOpen
	// per offered open-family member, maintained on every pending-set
	// mutation; critMissing[i] is the number of roles critical set i of the
	// table names that have no pending offer. The delayed-initiation matcher
	// skips the search unless some critMissing is zero — no critical set can be
	// covered otherwise.
	pendingBySlot []int
	pendingOpen   map[ids.RoleRef]int
	critMissing   []int32
	// offerBuf, slotBuf and candBuf are scratch lists reused across match
	// attempts — the offers handed to the matcher, the slot and the enrollment
	// of each — and castBuf the matched cast in role order.
	offerBuf         []*match.Offer
	slotBuf          []int32
	candBuf, castBuf []*enrollState
	// matchScratch is the matcher's working memory, kept across attempts like
	// the lists above and, like them, only touched under mu. The cast a search
	// returns lives in it until the next search.
	matchScratch match.Scratch
	// offersDirty records whether the pending set changed since the last
	// failed match attempt; when false, searching again is pointless
	// (match existence depends only on the offer set).
	offersDirty bool
	// critUnfilled[i] is the number of roles of critical set i the active
	// open-membership performance (immediate initiation) has yet to fill;
	// membership closes when one reaches zero. Per instance, because an
	// instance runs one performance at a time.
	critUnfilled []int32
}

// enrollPhase is where an enrollment stands. Pending, assigned and held are
// live; the other four are ends, written once and never again.
type enrollPhase uint8

const (
	phasePending  enrollPhase = iota + 1
	phaseAssigned             // cast in a performance: its body runs, or is about to
	phaseHeld                 // body returned under delayed termination: waits for the performance's end
	phaseOver                 // released, or never held
	phaseLeft                 // taken back by its holder: withdrawn while pending, or cut loose while held
	phaseDrained              // turned away by Drain
	phaseClosed               // turned away by Close
)

// enrollState is the record of one enrollment. Offer allocates one per offer;
// Enroll takes its record from the waker it borrows, and the record goes back
// to the pool with the waker only when nothing but that Enroll can read it
// any more (free, and no posted op owed an outcome): DESIGN.md "What a
// performance leaves the collector" says who may read a record after its
// Enroll returns. The role, the process, the context, the arguments and the
// performance are kept here only; the RoleCtx inside reads them through its
// back pointer.
type enrollState struct {
	offer match.Offer
	slot  int32 // the role's slot in Instance.roles, -1 for an open-family member
	phase enrollPhase
	// args is the enrollment's copy of Enrollment.Args; a single argument,
	// the usual case in the patterns library, is copied into arg1 and costs no
	// list of its own.
	args     []any
	arg1     [1]any
	ctx      context.Context
	deadline time.Time     // Enrollment.Deadline; zero = none
	traceID  trace.TraceID // Enrollment.TraceID; zero = none
	perf     *performance  // set, once, when the offer is assigned
	rc       RoleCtx       // filled in when the offer is assigned
	// h is the holder's Handoff, told of the assignment, the turn-away, the
	// abort or the release; next links the record into its performance's list
	// of held roles.
	h    Handoff
	next *enrollState
	// free is set under mu by the Look or Finish that ends the enrollment for
	// its holder, when the performance it was cast in is done (or it was never
	// cast): no co-performer reads the record again. posted counts the role's
	// posted ops whose completer has not been told yet.
	free   bool
	posted atomic.Int32
}

// Handoff is how the holder of an offer placed with Offer learns what became
// of it, instead of a goroutine parked on it: Enroll's is a wake channel, the
// remote host's the stream the offer came in on. Every hand-off is made by
// the goroutine whose action caused it, after it has dropped the instance's
// lock, so a Handoff may block briefly and may call back into the instance.
type Handoff interface {
	// Settled is called once, when offer o is settled: assigned to a
	// performance (err nil: the holder runs o.Ctx's role and calls o.Finish,
	// or o.Perform) by the goroutine that formed the cast or admitted the
	// offer, or turned away by Close or Drain (ErrClosed, ErrDraining: the
	// offer is gone). It may come before Offer has returned o. The chaos
	// WakeDelay fault defers the assignment's call to a timer.
	Settled(o Offered, err error)
	// Aborted is called once for the role of each assigned offer o whose
	// body had not returned when its performance was aborted (a deadline,
	// AbortPerformance), by the goroutine that aborted it. It may come before
	// the assignment's Settled, and after o's role has ended: a holder that
	// reuses its Handoff for a later offer tells the two apart by o. Closing
	// the instance under a performance aborts nothing.
	Aborted(o Offered, err *AbortError)
	// Released is called once for a role held under delayed termination,
	// when its performance ends: by the goroutine that ended it — its last
	// role, the abort path or Close. A role cut loose first (see
	// Offered.Look) is not released.
	Released()
}

// owedHandoff is one hand-off a critical section owes: the record, which of
// its holder's calls, and what the call reads of the record — its Handoff and
// an abort's error — taken when owed. The kind is kept because an assigned or
// aborted record's phase is not an end: its holder may move it on before the
// call, and an Enroll's record may by then serve the enroller's next Enroll.
type owedHandoff struct {
	st   *enrollState
	h    Handoff
	kind owedKind
	err  *AbortError // oweAborted's
}

// oweLocked owes st's holder the hand-off kind, made once mu is dropped.
func (in *Instance) oweLocked(st *enrollState, kind owedKind) {
	w := owedHandoff{st: st, h: st.h, kind: kind}
	if kind == oweAborted {
		w.err = st.perf.abortErr
	}
	in.owed = append(in.owed, w)
}

type owedKind uint8

const (
	oweAssigned owedKind = iota // Settled(o, nil)
	oweDrained                  // Settled(o, ErrDraining)
	oweClosed                   // Settled(o, ErrClosed)
	oweAborted                  // Aborted
	oweReleased                 // Released
)

// wakeCh is Enroll's Handoff: every hand-off leaves a token, and the
// enroller, woken, re-reads its state under the lock, so a token says
// "look", not what happened.
type wakeCh chan struct{}

// Settled leaves a token unless one is already there.
func (w wakeCh) Settled(Offered, error) {
	select {
	case w <- struct{}{}:
	default: // already signalled; the re-check under the lock makes a second token moot
	}
}

func (w wakeCh) Released() { w.Settled(Offered{}, nil) }

// Aborted leaves no token: the body learns of the abort from its next
// communication.
func (wakeCh) Aborted(Offered, *AbortError) {}

// waker is what an enrollment borrows from wakePool for the length of its
// Enroll call: the wake channel, the entry that adds the channel to the
// instance's watch, whose function leaves a token too — so under a context
// the watch shares, the channel is all an enroller parks on — and rec, the
// enrollment record. watched says the entry is added, selects that the watch
// declined it. rec is nil when the last Enroll left its record to readers it
// could not wait for (see keep); the next one makes another.
type waker struct {
	ch               wakeCh
	entry            ctxwatch.Entry
	watched, selects bool
	rec              *enrollState
}

// keep decides, as Enroll returns, whether st, the record w lent it, goes back
// to the pool with w: only if the enrollment ended after its performance did
// — before, the performance's cast still names the record (an early finisher
// under immediate termination), or its held list does (a role cut loose) —
// and no posted op of the role is still to be told its outcome (the op's
// completer reads the role's context).
func (w *waker) keep(st *enrollState) {
	if !st.free || st.posted.Load() != 0 {
		w.rec = nil
	}
}

// wakePool lends wakers to enrollments. A channel outlives the enrollment it
// served, and a signaller that was delayed past its enrollment's return (the
// chaos WakeDelay timer is one, an entry's function that Remove came too late
// for another) then leaves its token with whoever holds the channel next.
// That is safe because of what a token means: the holder takes one more look
// at its own state under the lock, finds it unchanged and waits again;
// nothing is ever decided by a token alone.
var wakePool = sync.Pool{New: func() any {
	w := &waker{ch: make(wakeCh, 1)}
	w.entry.Func = w.ch.Released
	return w
}}

// wait blocks until w's channel delivers a token or ctx ends. A first
// non-blocking receive tells a wait that would block, and the first such
// wait of an enrollment whose ctx can end offers w's entry to the watch
// (Join), where it stays until Enroll returns: the end of ctx then leaves a
// token like any hand-off. Once the entry has fired no wait blocks, for its
// token may have been taken by the look that found the offer assigned, and
// the next look finds ctx ended. A context the watch has not met before is
// declined — one per call would cost an AfterFunc per Enroll — and the
// enrollment's waits select on the channel and ctx.Done().
func (in *Instance) wait(ctx context.Context, w *waker) {
	select {
	case <-w.ch:
		return
	default:
	}
	switch {
	case w.watched:
		if w.entry.Fired() {
			return
		}
	case w.selects || ctx.Done() == nil:
	case in.watch.Join(ctx, &w.entry):
		w.watched = true
	default:
		w.selects = true
	}
	if !w.selects {
		<-w.ch
		return
	}
	select {
	case <-w.ch:
	case <-ctx.Done():
	}
}

// putWake takes an enrollment's waker out of the watch and returns it to the
// pool, minus the token a signal that raced the enroller's own exit (Close,
// Drain, a cancelled context) may have left: the next holder would only look
// once for nothing, and need not.
func (in *Instance) putWake(w *waker) {
	if w.watched {
		in.watch.Remove(&w.entry)
	}
	w.watched, w.selects = false, false
	select {
	case <-w.ch:
	default:
	}
	wakePool.Put(w)
}

// castState is where one role stands in a performance.
type castState uint8

const (
	castUnfilled castState = iota // nobody plays it (yet)
	castFilled                    // assigned, body not finished
	castFinished                  // assigned and its body has returned
)

// castEntry is one role's line in a performance's cast: its state and, once
// filled, its endpoint and the enrollment that fills it. A closed role's
// endpoint is its slot; a member of an open family's is handed out by the
// fabric, when the member is assigned or an operation names it first.
type castEntry struct {
	state castState
	id    rendezvous.ID
	st    *enrollState
}

// performance is one collective activation of the instance's roles.
type performance struct {
	number int
	fabric *rendezvous.Fabric
	// cast is the performance's role table: the closed roles at the slots of
	// Instance.roles, for the definition fixes them, so who plays what and who
	// has finished is a position, not a key; then a line for each member of an
	// open family, appended when it is assigned. open maps such a member to
	// one past its line, so that a member nobody plays reads 0 and a lookup
	// costs the one map read (performance.entry stays cheap enough for its
	// callers on the operation path to be inlined); nil until one is assigned.
	// nAssigned and nFinished count the filled and the finished lines.
	cast      []castEntry
	open      map[ids.RoleRef]int
	nAssigned int
	nFinished int
	// While membership is open (immediate initiation): admitSeen is the ID
	// of the last offer an admission pass has considered, and constrained
	// records whether any member carries a partner constraint.
	admitSeen uint64
	// held lists the roles held for delayed termination, in the order they
	// finished.
	held records
	// deadline is the earliest abort deadline in force (instance-level
	// performance deadline or an assigned enrollment's deadline); zero =
	// unbounded. timer fires the abort; it is stopped on normal termination.
	deadline time.Time
	timer    *time.Timer
	// abortErr is non-nil once the runtime aborted the performance; it is
	// the error blocked co-performers unwind with.
	abortErr *AbortError
	// traceID and sampled are the initiation-time sampling verdict: sampled
	// gates whether per-performance events are recorded at all, traceID (when
	// non-zero) is stamped on each of them. See Instance.samplePerfLocked.
	traceID trace.TraceID
	sampled bool
	// membershipClosed is set when the filled roles cover a critical set
	// (immediate initiation) or at the atomic match (delayed initiation).
	membershipClosed bool
	constrained      bool
	done             bool
	released         bool
	// results holds two result slots for each closed role, made by the first
	// SetResult of any of them (resultsOnce) and never reused: a role's
	// Result.Values stays valid after its enrollment record serves again.
	resultsOnce sync.Once
	results     []any
}

// resultsOf returns the empty result list of the closed role at slot, with
// room for two in the performance's array (roles is the number of closed
// roles), or nil for a member of an open family, whose results take a list
// of their own.
func (p *performance) resultsOf(slot, roles int) []any {
	if slot < 0 {
		return nil
	}
	p.resultsOnce.Do(func() { p.results = make([]any, 2*roles) })
	return p.results[2*slot : 2*slot : 2*slot+2]
}

// entry returns the cast entry of role r, whose slot is slot (-1 for a
// member of an open family); nil for an open member nobody was assigned.
func (p *performance) entry(slot int, r ids.RoleRef) *castEntry {
	if slot < 0 {
		if slot = p.open[r] - 1; slot < 0 {
			return nil
		}
	}
	return &p.cast[slot]
}

// stateOf is the state of entry(slot, r), castUnfilled when there is none.
func (p *performance) stateOf(slot int, r ids.RoleRef) castState {
	if e := p.entry(slot, r); e != nil {
		return e.state
	}
	return castUnfilled
}

// endpointLocked returns the fabric endpoint of role r, whose slot is slot. A
// member of an open family nobody plays yet — an operation may wait for it
// while membership is open — is looked up by the name it will be assigned
// under.
func (p *performance) endpointLocked(slot int, r ids.RoleRef) rendezvous.ID {
	if slot >= 0 {
		return rendezvous.ID(slot)
	}
	if line := p.open[r]; line > 0 {
		return p.cast[line-1].id
	}
	return p.fabric.Endpoint(rendezvous.Addr(r.String()))
}

// openRole names the member of an open family that plays at endpoint id.
func (p *performance) openRole(id rendezvous.ID) (ids.RoleRef, bool) {
	for r, line := range p.open {
		if p.cast[line-1].id == id {
			return r, true
		}
	}
	return ids.RoleRef{}, false
}

// stopTimer stops p's deadline timer, if one is armed.
func (p *performance) stopTimer() {
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
}

// releaseHeldLocked ends performance p for the roles it holds, once: the
// performance ended (finish, abort) or the instance closed under it. The held
// roles are owed their release, made when the lock is dropped.
func (in *Instance) releaseHeldLocked(p *performance) {
	if p.released {
		return
	}
	p.released = true
	for st := p.held.head; st != nil; st = st.next {
		if st.phase == phaseHeld { // not cut loose
			in.endLocked(st, phaseOver)
			in.oweLocked(st, oweReleased)
		}
	}
}

// endLocked ends enrollment st's part in its performance, moving it to phase:
// over (released, or never held) or left (cut loose).
func (in *Instance) endLocked(st *enrollState, phase enrollPhase) {
	st.phase = phase
	in.load.Add(-1)
	in.recordPerf(st.perf, trace.Event{
		Kind: trace.KindRelease, Script: in.def.name,
		Performance: st.perf.number, Role: st.offer.Role, PID: st.offer.PID,
	})
}

// records is a list of enrollment records linked through their next field.
type records struct{ head, tail *enrollState }

// push appends record st.
func (l *records) push(st *enrollState) {
	if l.tail == nil {
		l.head = st
	} else {
		l.tail.next = st
	}
	l.tail = st
}

// owe keeps what a fabric call under mu delivered to posted ops, for unlock
// to pay.
func (in *Instance) owe(dues rendezvous.Owed) {
	in.dues = append(in.dues, dues...)
}

// unlock drops mu, then makes the hand-offs owed since it was taken, in the
// order they were owed: Settled to the offers assigned or turned away, Aborted
// to the roles of an aborted performance, Released to the held roles of one
// that ended. They are made outside the lock because a remote holder writes
// its stream's frames in them, and may end its role there. The list is copied
// out under the lock — a cast's worth fits on the stack — so the next critical
// section can owe while this one's hand-offs are made. Then the posted ops
// that a termination, an abort or a closure failed are told so: a completer
// maps the fabric's error under the lock. Every critical section that can
// assign, abort, end a performance, end a role or turn offers away is left
// through unlock.
func (in *Instance) unlock() {
	if len(in.owed) == 0 && len(in.dues) == 0 {
		in.mu.Unlock()
		return
	}
	var buf [32]owedHandoff
	owed := append(buf[:0], in.owed...)
	clear(in.owed)
	in.owed = in.owed[:0]
	dues := in.dues
	in.dues = nil
	in.mu.Unlock()
	for _, w := range owed {
		o := Offered{in, w.st}
		switch w.kind {
		case oweAssigned:
			w.h.Settled(o, nil)
		case oweDrained:
			w.h.Settled(o, ErrDraining)
		case oweClosed:
			w.h.Settled(o, ErrClosed)
		case oweAborted:
			w.h.Aborted(o, w.err)
		case oweReleased:
			w.h.Released()
		}
	}
	dues.Pay()
}

// NewInstance creates an instance of def.
func NewInstance(def Definition, opts ...Option) *Instance {
	in := &Instance{
		def:         def,
		tracer:      trace.Nop{},
		nopTrace:    true,
		fairness:    match.FIFO,
		closedCh:    make(chan struct{}),
		roles:       def.closedRoles().Sorted(),
		base:        make(map[string]int),
		pendingOpen: make(map[ids.RoleRef]int),
	}
	for slot, r := range in.roles {
		if _, seen := in.base[r.Name]; !seen {
			in.base[r.Name] = slot // the scalar, or member 1: ids order is by index
		}
	}
	in.table = match.Compile(in.roles, def.criticalSets)
	in.critMissing, in.critUnfilled = slices.Clone(in.table.Sizes()), make([]int32, len(in.table.Sizes()))
	in.pendingBySlot = make([]int, len(in.roles))
	for _, o := range opts {
		o(in)
	}
	in.traces = trace.NewTable(0)
	in.fabric = in.newFabric()
	return in
}

// newFabric builds a fabric with the closed roles declared in slot order,
// under their names in the paper's notation. It keeps its blocking calls'
// contexts in the instance's watch: a role's op parks on its outcome alone
// under a context an enrollment already brought there.
func (in *Instance) newFabric() *rendezvous.Fabric {
	addrs := make([]rendezvous.Addr, len(in.roles))
	for slot, r := range in.roles {
		addrs[slot] = rendezvous.Addr(r.String())
	}
	fab := rendezvous.New(rendezvous.WithWatch(&in.watch))
	fab.Declare(addrs...)
	return fab
}

// Definition returns the instance's script definition.
func (in *Instance) Definition() Definition { return in.def }

// Performances returns the number of performances started so far.
func (in *Instance) Performances() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.perfCount
}

// Load returns the number of enrollments currently in flight — pending,
// playing a role, or held for delayed termination. It is a dispatch hint
// (used by the root package's Pool) and reads a single atomic counter, so it
// never contends with the scheduler.
func (in *Instance) Load() int {
	return int(in.load.Load())
}

// PendingOffers returns the number of enrollment offers waiting to be
// matched or admitted. It reads a single atomic counter: an admission-control
// layer (the remote host's per-instance pending-offer cap) consults it on
// every offer, and must never contend with the scheduler to decide whether
// to shed.
func (in *Instance) PendingOffers() int {
	return int(in.pendingCount.Load())
}

// Close aborts the instance: pending enrollments fail with ErrClosed, and
// blocked communications of a running performance fail so role bodies can
// unwind. A role whose body already finished when Close lands keeps its
// results and reports no error — only work interrupted before finishing
// surfaces the closure. Close is idempotent. Prefer Drain for a shutdown
// that lets in-flight performances complete.
func (in *Instance) Close() {
	in.mu.Lock()
	defer in.unlock()
	if !in.closed {
		in.closeLocked()
	}
}

// closeLocked closes the open instance, for Close and for a Drain that found
// it idle.
func (in *Instance) closeLocked() {
	in.closed = true
	in.watch.Close() // no context an enroller waited under keeps the instance
	if p := in.active; p != nil {
		p.stopTimer()
		in.owe(p.fabric.Close())
		in.releaseHeldLocked(p) // held roles leave now; the running ones unwind
	}
	in.turnAwayLocked(phaseClosed)
	close(in.closedCh)
}

// turnAwayLocked takes every pending offer off the instance, for Close and
// Drain (phase says which): each holder is told so once the lock is dropped.
func (in *Instance) turnAwayLocked(phase enrollPhase) {
	kind := oweClosed
	if phase == phaseDrained {
		kind = oweDrained
	}
	for _, st := range in.pending {
		st.phase = phase
		in.load.Add(-1)
		in.countOfferLocked(st, -1)
		in.oweLocked(st, kind)
	}
	clear(in.pending)
	in.pending = in.pending[:0]
	in.pendingChangedLocked()
}

// Closed reports whether the instance has been closed (by Close or by a
// completed Drain).
func (in *Instance) Closed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.closed
}

// Draining reports whether the instance is draining (or has finished
// draining and closed).
func (in *Instance) Draining() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.draining
}

// Drain shuts the instance down gracefully: from the moment Drain is
// called, new offers are rejected and pending offers released (both with
// ErrDraining), while the in-flight performance — and its held enrollers —
// run to completion; once the instance is idle it is closed and Drain
// returns nil. If the active performance still has open membership, its
// membership is frozen (unfilled roles become absent) so it cannot wait
// forever for joiners that will now never be admitted.
//
// If ctx ends first, Drain returns ctx's error and leaves the instance
// draining but open: in-flight work keeps running, offers keep failing with
// ErrDraining, and the caller may re-Drain, Close, or rely on a performance
// deadline to reclaim wedged work. Drain is idempotent and may be called
// concurrently; Drain on a closed instance returns nil.
func (in *Instance) Drain(ctx context.Context) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	if !in.draining {
		in.draining = true
		in.record(trace.Event{Kind: trace.KindDrain, Script: in.def.name})
		in.turnAwayLocked(phaseDrained)
		if in.active != nil && !in.active.membershipClosed {
			in.closeMembershipLocked(in.active)
		}
	}
	for {
		if !in.closed && in.active == nil && len(in.pending) == 0 {
			in.closeLocked()
		}
		if in.closed {
			in.unlock()
			return nil
		}
		if in.idleCh == nil {
			in.idleCh = make(chan struct{})
		}
		idle := in.idleCh
		in.unlock()
		select {
		case <-idle:
		case <-in.closedCh:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
		in.mu.Lock()
	}
}

// notifyDrainLocked wakes Drain waiters when a draining instance reaches
// the idle state (no active performance, no pending offers).
func (in *Instance) notifyDrainLocked() {
	if in.draining && in.active == nil && len(in.pending) == 0 && in.idleCh != nil {
		close(in.idleCh)
		in.idleCh = nil
	}
}

// Enroll offers to play e.Role in this instance, blocks until a performance
// admits the offer, runs the role body in the calling goroutine, and
// returns when the process is released (at body completion under immediate
// termination; after the whole performance under delayed termination).
//
// The returned Result carries the role's out parameters. A role-body error
// is wrapped in *RoleError. Cancelling ctx withdraws a pending offer,
// interrupts the role's communications once it is running, or — under
// delayed termination — releases a finished role early instead of holding
// it until the whole performance ends (the enrollment then reports ctx's
// error alongside the role's results).
//
// The body's Ctx is the enrollment record's, which the goroutine's next Enroll
// may reuse: it is valid until Enroll returns.
func (in *Instance) Enroll(ctx context.Context, e Enrollment) (Result, error) {
	w := wakePool.Get().(*waker)
	defer in.putWake(w)
	if w.rec == nil {
		w.rec = new(enrollState)
	}
	o, err := in.offer(ctx, e, w.ch, w.rec)
	if err != nil {
		return Result{}, err
	}
	defer w.keep(o.st)
	for waiting := true; waiting; {
		in.wait(ctx, w)
		if waiting, err = o.Look(); err != nil {
			return Result{}, err
		}
	}
	res, held, err := o.Perform(e.Body)
	for held {
		in.wait(ctx, w)
		var heldErr error
		if held, heldErr = o.Look(); err == nil {
			err = heldErr // a released-but-held role interrupted by its enroller
		}
	}
	return res, err
}

// Offered is an offer placed with Offer: the holder's handle on it.
type Offered struct {
	in *Instance
	st *enrollState
}

// Offer places the offer to play e.Role in this instance and returns without
// waiting for it: h is told when it is settled (Handoff.Settled) and, under
// delayed termination, when the role is released (Handoff.Released). ctx is
// the enrollment's context — the role's communications end with it, and so
// does its wait, pending or held — but Offer does not watch it: a holder
// whose context has ended calls Look. e.Body is not consulted; the holder
// passes a body to Perform. Enroll is Offer with a wake channel for h, which
// the instance's watch also signals when a ctx it shares ends (Instance.wait).
func (in *Instance) Offer(ctx context.Context, e Enrollment, h Handoff) (Offered, error) {
	return in.offer(ctx, e, h, new(enrollState))
}

// offer is Offer into the record st: a fresh one, or the one Enroll's waker
// lends, which nothing else reads any more (see waker.keep).
func (in *Instance) offer(ctx context.Context, e Enrollment, h Handoff, st *enrollState) (Offered, error) {
	if e.PID == ids.NoPID {
		return Offered{}, fmt.Errorf("script %s: enrollment has empty PID", in.def.name)
	}
	slot := in.slotOf(e.Role)
	if slot < 0 { // not a closed role: a member of an open family, or no role at all
		if err := in.def.checkRole(e.Role); err != nil {
			return Offered{}, err
		}
	}
	for r := range e.With {
		if err := in.def.checkRole(r); err != nil {
			return Offered{}, fmt.Errorf("partner constraint: %w", err)
		}
	}

	in.mu.Lock()
	if in.closed || in.draining {
		err := ErrDraining
		if in.closed {
			err = ErrClosed
		}
		in.mu.Unlock()
		return Offered{}, err
	}
	in.load.Add(1)
	in.nextOffer++
	*st = enrollState{
		offer:    match.Offer{ID: in.nextOffer, PID: e.PID, Role: e.Role, With: clonePartners(e.With)},
		slot:     int32(slot),
		phase:    phasePending,
		ctx:      ctx,
		deadline: e.Deadline,
		traceID:  e.TraceID,
		h:        h,
	}
	st.args = append(st.arg1[:0], e.Args...)
	in.addPendingLocked(st)
	// Offer-time events predate any performance, so they cannot be sampled
	// per-performance; with a sampler installed the tracer sees only the
	// events of sampled performances, or the unconditional offer stream
	// would dominate event volume at production sampling rates.
	if in.sampler == nil {
		in.record(trace.Event{Kind: trace.KindEnroll, Script: in.def.name, Role: e.Role, PID: e.PID})
	}
	in.advanceLocked()
	in.unlock()
	return Offered{in, st}, nil
}

// Look reports whether the enrollment is still waiting — pending, or held for
// delayed termination — and, once it is not, why: nil when it was assigned or
// released, ErrDraining or ErrClosed when it was turned away, its context's
// error when it left. A waiting enrollment whose context has ended leaves on
// this look: a pending offer is withdrawn, a held role cut loose (it is not
// released through the Handoff, and its co-performers are not affected).
// Assignment wins: an offer assigned before the look must be performed.
func (o Offered) Look() (waiting bool, err error) {
	in, st := o.in, o.st
	in.mu.Lock()
	defer in.mu.Unlock()
	switch st.phase {
	case phasePending, phaseHeld:
		if err = st.ctx.Err(); err == nil {
			return true, nil
		}
		if st.phase == phasePending {
			in.removePendingLocked(st)
			in.load.Add(-1)
		} else { // it stays on its performance's held list, which skips it
			in.endLocked(st, phaseLeft)
		}
	case phaseDrained:
		err = ErrDraining
	case phaseClosed:
		err = ErrClosed
	}
	st.free = st.perf == nil || st.perf.done
	return false, err
}

// Perform runs the role body of an assigned offer on the calling goroutine —
// body, or the definition's body for the role when body is nil — and ends the
// role: it is o.Finish(RunBody(body, o.Ctx())).
func (o Offered) Perform(body RoleBody) (Result, bool, error) {
	if body == nil {
		body = o.in.def.bodyFor(o.st.offer.Role)
	}
	return o.Finish(RunBody(body, o.Ctx()))
}

// Ctx is the role's context in its performance, for a holder that plays the
// role itself rather than through Perform; valid once the offer is assigned,
// for one goroutine at a time, until Finish. What RoleCtx says may be called
// from any goroutine (AbortPerformance) may be, by a holder of an offer placed
// with Offer, for as long as it holds the offer: its record is its own. An
// Enroll body's Ctx is valid until that Enroll returns, after which its record
// may serve the goroutine's next Enroll.
func (o Offered) Ctx() *RoleCtx { return &o.st.rc }

// Finish ends the role of an assigned offer, whose body returned bodyErr. It
// returns the enrollment's Result, its error, and whether the role is held:
// under delayed termination a finished role stays in its performance until
// the performance ends, and is then released through the Handoff, unless its
// context ends first (see Look). A role-body error is wrapped in *RoleError;
// a body that unwound because the performance was aborted reports the
// *AbortError; a body that finished its work reports success, whatever
// happens to the performance while the role is held.
func (o Offered) Finish(bodyErr error) (res Result, held bool, err error) {
	in, st := o.in, o.st
	perf, rc, r := st.perf, &st.rc, st.offer.Role
	in.mu.Lock()
	in.recordPerf(perf, trace.Event{
		Kind: trace.KindFinish, Script: in.def.name,
		Performance: perf.number, Role: r, PID: st.offer.PID,
	})
	perf.entry(int(st.slot), r).state = castFinished
	perf.nFinished++
	if perf.fabric != nil {
		in.owe(perf.fabric.TerminateID(rc.id))
	}
	if perf.membershipClosed && perf.nFinished == perf.nAssigned {
		in.finishPerformanceLocked(perf)
		in.advanceLocked() // the instance is free: let the next cast form
	}
	held = in.def.termination == DelayedTermination && !perf.done && !in.closed
	if held {
		st.phase = phaseHeld
		perf.held.push(st)
	} else {
		in.endLocked(st, phaseOver)
		st.free = perf.done
	}
	abortErr := perf.abortErr
	in.unlock()

	res = Result{Performance: perf.number, Role: r, Values: rc.results, TraceID: perf.traceID}
	switch {
	case bodyErr != nil && abortErr != nil && errors.Is(bodyErr, ErrPerformanceAborted):
		// The body unwound because the runtime aborted the performance;
		// surface the abort itself (with its culprit), not a RoleError.
		return res, held, abortErr
	case bodyErr != nil:
		return res, held, &RoleError{Script: in.def.name, Role: r, Err: bodyErr}
	}
	return res, held, nil
}

// RunBody executes a role body, converting a panic into an error so a buggy
// role cannot wedge the whole instance — or, where another host runs the body
// (a remote enroller's process, the Ada and monitor translations), that host.
func RunBody(body RoleBody, rc Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("role body panicked: %v", r)
		}
	}()
	return body(rc)
}

// clonePartners copies an enrollment's partner constraints, dropping nil
// sets: a nil set is no constraint (ids.PIDSet.Contains, and the wire
// encoding, which cannot carry one), so an offer is constrained exactly when
// its With is non-empty.
func clonePartners(w map[ids.RoleRef]ids.PIDSet) map[ids.RoleRef]ids.PIDSet {
	var out map[ids.RoleRef]ids.PIDSet
	for r, s := range w {
		if s == nil {
			continue
		}
		if out == nil {
			out = make(map[ids.RoleRef]ids.PIDSet, len(w))
		}
		out[r] = maps.Clone(s)
	}
	return out
}

// advanceLocked is the coordinator step, run under the lock by whichever
// goroutine changed the coordination state: start a performance if one can
// start, and admit joiners under immediate initiation. It is idempotent.
// The paper's goal that a script needs no additional process is met: there
// is no coordinator goroutine, and — unlike a broadcast scheme — only the
// enrollers that are actually assigned are woken.
func (in *Instance) advanceLocked() {
	for {
		if in.closed || in.draining {
			return
		}
		before := len(in.pending)
		if in.active == nil {
			switch in.def.initiation {
			case ImmediateInitiation:
				if before == 0 {
					return
				}
				in.startPerformanceLocked(nil, false)
			default: // DelayedInitiation
				if !in.tryMatchLocked() {
					return
				}
			}
		}
		if in.active != nil && in.def.initiation == ImmediateInitiation && !in.active.membershipClosed {
			in.admitLocked(in.active)
		}
		if in.active != nil {
			return
		}
		// The performance completed within this step (every member had
		// already finished when the closing cover arrived, or an empty
		// critical set closed an empty cast); loop so the next one can form
		// — but only if this step consumed offers, otherwise looping could
		// spin without ever letting withdrawing enrollers clean up.
		if len(in.pending) == before {
			return
		}
	}
}

// tryMatchLocked runs the delayed-initiation matcher incrementally: only
// when the offer set changed since the last failed attempt (withdrawals and
// spurious wakeups cannot create a match), and only when every role of some
// critical set has at least one pending offer (a necessary condition, kept
// up to date in critMissing). It reports whether a performance was started.
func (in *Instance) tryMatchLocked() bool {
	if !in.offersDirty {
		return false
	}
	in.offersDirty = false
	if !slices.Contains(in.critMissing, 0) {
		return false
	}
	// The matcher is handed the offers where they lie, each with the slot its
	// enrollment resolved: no role is looked up by name and no offer copied.
	offers, slots, cands := in.offerBuf[:0], in.slotBuf[:0], in.candBuf[:0]
	for _, st := range in.pending {
		if st.ctx.Err() != nil {
			continue // being withdrawn by its enroller
		}
		offers, slots, cands = append(offers, &st.offer), append(slots, st.slot), append(cands, st)
	}
	chosen, ok := in.table.FindCast(offers, slots, in.fairness, in.seed+int64(in.perfCount), &in.matchScratch)
	// The matched cast comes back as offer indices in role order, which is
	// the order of wake-ups and of trace events: a function of the cast alone.
	cast := in.castBuf[:0]
	for _, k := range chosen {
		cast = append(cast, cands[k])
	}
	clear(offers)
	clear(cands)
	in.offerBuf, in.slotBuf, in.candBuf = offers[:0], slots[:0], cands[:0]
	if ok {
		in.startPerformanceLocked(cast, true)
	}
	clear(cast)
	in.castBuf = cast[:0]
	return ok
}

// startPerformanceLocked opens performance number perfCount+1. Under delayed
// initiation cast is the atomic match, in role order (matched; membership
// closes right away); under immediate initiation there is no cast yet and
// membership stays open for admission.
func (in *Instance) startPerformanceLocked(cast []*enrollState, matched bool) {
	in.perfCount++
	if in.fabric == nil {
		in.fabric = in.newFabric()
	}
	fab := in.fabric
	if ff, ok := in.faults.(rendezvous.FastFaults); ok && in.faults != nil {
		// The fault injector also covers fast-lane handoffs (chaos soak):
		// attach it for this performance; Reset detaches it.
		fab.SetFastFaults(ff)
	}
	p := &performance{
		number: in.perfCount,
		fabric: fab,
		cast:   make([]castEntry, len(in.roles)),
	}
	in.active = p
	perfStartedTotal.Inc()
	// Who may lend the performance a trace ID: the matched offers, or — under
	// immediate initiation, where the cast is not known yet — every pending
	// offer.
	lenders := cast
	if !matched {
		lenders = in.pending
		copy(in.critUnfilled, in.table.Sizes())
	}
	in.samplePerfLocked(p, lenders)
	in.recordPerf(p, trace.Event{Kind: trace.KindPerfStart, Script: in.def.name, Performance: p.number})
	if in.perfDeadline > 0 {
		in.armDeadlineLocked(p, time.Now().Add(in.perfDeadline))
	}
	if !matched {
		return // membership stays open; admitLocked fills the cast
	}
	for _, st := range cast {
		in.assignLocked(p, st)
	}
	in.dropAssignedLocked()
	in.closeMembershipLocked(p)
}

// samplePerfLocked makes the once-per-performance tracing decision at
// initiation. An enrollment that arrived with its own trace ID wins (the
// remote side already sampled the call and both ends must share a timeline):
// for delayed initiation only the matched offers are consulted, for immediate
// initiation any pending offer (the cast is not yet known); lenders is that
// list, and among several IDs the earliest arrival's wins. Otherwise the
// instance's sampler decides; with no sampler every performance is traced
// and, when a real tracer is attached, gets a freshly minted ID so even
// record-everything setups produce stitchable timelines. A sampled ID is
// retained in the bounded live-trace table; when the table is full the
// performance runs untraced.
func (in *Instance) samplePerfLocked(p *performance, lenders []*enrollState) {
	var adopted trace.TraceID
	var arrival uint64
	for _, st := range lenders {
		if st.traceID != 0 && (adopted == 0 || st.offer.ID < arrival) {
			adopted, arrival = st.traceID, st.offer.ID
		}
	}
	switch {
	case adopted != 0:
		p.traceID, p.sampled = adopted, true
	case in.sampler != nil:
		p.traceID, p.sampled = in.sampler.Sample()
	case in.nopTrace:
		p.sampled = true // record() discards everything anyway
	default:
		p.traceID, p.sampled = trace.NextID(), true
	}
	if p.traceID != 0 && !in.traces.Add(trace.PerfContext{
		ID: p.traceID, Script: in.def.name, Performance: p.number,
	}) {
		p.traceID, p.sampled = 0, false
	}
}

// TraceContexts returns a snapshot of the live traced performances.
func (in *Instance) TraceContexts() []trace.PerfContext {
	return in.traces.Contexts()
}

// armDeadlineLocked arms (or tightens) performance p's abort timer to fire
// at t; a zero t or a t no earlier than the deadline already in force is a
// no-op. The timer is lazily armed: an instance without deadlines never
// allocates one.
func (in *Instance) armDeadlineLocked(p *performance, t time.Time) {
	if t.IsZero() || p.done {
		return
	}
	if !p.deadline.IsZero() && !t.Before(p.deadline) {
		return
	}
	p.deadline = t
	p.stopTimer()
	p.timer = time.AfterFunc(time.Until(t), func() { in.deadlineFired(p) })
}

// deadlineFired is the performance-deadline timer callback: it aborts p if
// it is still running, then lets the next cast form.
func (in *Instance) deadlineFired(p *performance) {
	in.mu.Lock()
	defer in.unlock()
	in.abortLocked(p, ids.RoleRef{}, "deadline exceeded")
	in.advanceLocked()
}

// abortLocked reclaims a wedged performance p: it fails every blocked and
// future communication of the performance's fabric with an *AbortError
// blaming culprit, and ends the performance so the instance can accept the
// next cast. The remote host names the culprit when it knows which role's
// enroller disconnected; a zero culprit is attributed here: the first (in
// role order) assigned role that has neither finished nor is blocked inside
// the fabric waiting to communicate — the paper's "partner that never
// communicates"; if every unfinished role is blocked communicating (a genuine
// cycle), the first unfinished role is blamed. The waiting set is taken as
// one fabric snapshot (Fabric.WaitingIDs) so the attribution reflects a state
// the fabric was actually in, rather than a series of per-role probes that
// racing commits could interleave with. It is a no-op once p has ended or
// the instance is closed.
//
// Unlike Close, which takes the whole instance down, an abort is scoped to
// one performance. The performance keeps the fabric: a wedged role body may
// call into it arbitrarily late, and it keeps answering with the abort
// reason. The instance's next performance gets a new one.
func (in *Instance) abortLocked(p *performance, culprit ids.RoleRef, reason string) {
	if p.done || in.closed {
		return
	}
	if culprit.Name == "" {
		waiting := p.fabric.WaitingIDs()
		// The closed roles' lines are in role order; members of open families,
		// after them in the order they were assigned, are merged in.
		unfinished := make([]ids.RoleRef, 0, p.nAssigned-p.nFinished)
		for _, e := range p.cast {
			if e.state == castFilled {
				unfinished = append(unfinished, e.st.offer.Role)
			}
		}
		if len(p.open) > 0 {
			slices.SortFunc(unfinished, ids.RoleRef.Compare)
		}
		for _, r := range unfinished {
			if !slices.Contains(waiting, p.endpointLocked(in.slotOf(r), r)) {
				culprit = r
				break
			}
		}
		if culprit.Name == "" && len(unfinished) > 0 {
			culprit = unfinished[0]
		}
	}
	p.abortErr = &AbortError{
		Script:      in.def.name,
		Performance: p.number,
		Culprit:     culprit,
		Reason:      reason,
	}
	for _, e := range p.cast { // the roles still playing are owed the abort
		if e.state == castFilled {
			in.oweLocked(e.st, oweAborted)
		}
	}
	p.stopTimer()
	p.done = true
	in.owe(p.fabric.Abort(p.abortErr))
	if in.fabric == p.fabric {
		in.fabric = nil
	}
	perfAbortedTotal.Inc()
	in.recordPerf(p, trace.Event{
		Kind: trace.KindAbort, Script: in.def.name,
		Performance: p.number, Role: culprit, Detail: reason,
	})
	if p.traceID != 0 {
		in.traces.Remove(p.traceID)
	}
	if in.active == p {
		in.active = nil
	}
	in.releaseHeldLocked(p)
	in.notifyDrainLocked()
}

// assignLocked binds the pending enrollment st into performance p — its
// line of the cast and its RoleCtx — and owes the assignment's hand-off to
// exactly that offer's holder. st stays in the pending list, no longer
// pending; the caller follows its assignments with one dropAssignedLocked.
func (in *Instance) assignLocked(p *performance, st *enrollState) {
	r := st.offer.Role
	id := p.endpointLocked(int(st.slot), r)
	if st.slot < 0 { // a member of an open family gets its line now
		if p.open == nil {
			p.open = make(map[ids.RoleRef]int)
		}
		p.cast = append(p.cast, castEntry{})
		p.open[r] = len(p.cast)
	}
	*p.entry(int(st.slot), r) = castEntry{state: castFilled, id: id, st: st}
	p.nAssigned++
	st.phase = phaseAssigned
	st.perf = p
	st.rc = RoleCtx{st: st, inst: in, id: id}
	in.armDeadlineLocked(p, st.deadline)
	delay := time.Duration(0)
	if fi := in.faults; fi != nil {
		delay = fi.WakeDelay()
	}
	if delay > 0 {
		// Injected fault: drop the owed hand-off and redeliver it late. The
		// holder waits until the redelivery (an enroller also until its
		// context ends); a correct scheduler tolerates the gap. The Handoff is
		// taken now, as an owed one is: an enroller that woke on its context
		// and performed may have returned, and its record moved on, by then.
		h := st.h
		time.AfterFunc(delay, func() { h.Settled(Offered{in, st}, nil) })
	} else {
		in.oweLocked(st, oweAssigned)
	}
	in.recordPerf(p, trace.Event{
		Kind: trace.KindStart, Script: in.def.name,
		Performance: p.number, Role: r, PID: st.offer.PID,
	})
}

// admitLocked runs one admission pass for an open-membership performance
// (immediate initiation): every pending offer that can join does, in
// fairness order; then, if the filled roles cover a critical set,
// membership closes ("admit then close").
//
// A pass considers only the offers that arrived since the previous one —
// every pending offer when the performance starts, the one new offer after
// that. An offer a pass turned down stays turned down while the performance
// lasts: a role once filled stays filled, and a growing cast only adds
// constraints. So a pass costs what its new offers cost, not the backlog
// waiting for the next performance.
func (in *Instance) admitLocked(p *performance) {
	first := len(in.pending) // pending is in ID order
	for first > 0 && in.pending[first-1].offer.ID > p.admitSeen {
		first--
	}
	p.admitSeen = in.nextOffer
	batch := in.pending[first:]
	if in.fairness == match.Arbitrary && len(batch) > 1 {
		batch = slices.Clone(batch)
		rng := newSeededRNG(in.seed + int64(in.perfCount))
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	}
	// The cast as match.CanJoin reads it, spelled out only when a constraint
	// has to be checked, then kept in step with the admissions of this pass.
	var asg match.Assignment
	for _, st := range batch {
		if st.ctx.Err() != nil {
			continue // being withdrawn by its enroller
		}
		if p.stateOf(int(st.slot), st.offer.Role) != castUnfilled {
			continue // filled, or already played: wait for the next performance
		}
		// With no constraint on either side a free role is all joining takes.
		constrained := len(st.offer.With) > 0
		if constrained || p.constrained {
			if asg == nil {
				asg = in.assignmentLocked(p)
			}
			if !match.CanJoin(asg, st.offer) {
				continue
			}
			asg[st.offer.Role] = st.offer
		}
		p.constrained = p.constrained || constrained
		in.countCriticalLocked(in.critUnfilled, st, -1)
		in.assignLocked(p, st)
	}
	in.dropAssignedLocked()
	if slices.Contains(in.critUnfilled, 0) {
		in.closeMembershipLocked(p)
	}
}

// assignmentLocked spells p's cast out as the matcher's Assignment: each
// filled role with the process and the constraints of the offer filling it.
func (in *Instance) assignmentLocked(p *performance) match.Assignment {
	asg := make(match.Assignment, p.nAssigned)
	for _, e := range p.cast {
		if e.state != castUnfilled {
			o := &e.st.offer
			asg[o.Role] = match.Offer{PID: o.PID, Role: o.Role, With: o.With}
		}
	}
	return asg
}

// closeMembershipLocked freezes the performance's membership: declared
// roles left unfilled are marked absent (Terminated(r) becomes true and
// communication with them yields ErrRoleAbsent), and operations blocked on
// roles that will never be filled are woken.
func (in *Instance) closeMembershipLocked(p *performance) {
	if p.membershipClosed {
		return
	}
	p.membershipClosed = true
	for slot, r := range in.roles {
		if p.cast[slot].state == castUnfilled {
			in.recordPerf(p, trace.Event{
				Kind: trace.KindAbsent, Script: in.def.name,
				Performance: p.number, Role: r,
			})
			in.owe(p.fabric.TerminateID(rendezvous.ID(slot)))
		}
	}
	// The fabric asks only about endpoints some blocked operation targets —
	// none at all when membership closes before any body has run. One past
	// the closed roles is a member of an open family: in the cast if it is
	// played, and absent otherwise.
	in.owe(p.fabric.TerminateAbsentID(func(id rendezvous.ID) bool {
		if int(id) < len(in.roles) {
			return p.cast[id].state != castUnfilled
		}
		_, played := p.openRole(id)
		return played
	}))
	// A performance whose members all finished before membership closed
	// (possible when the closing cover arrives last) completes here.
	if p.nFinished == p.nAssigned {
		in.finishPerformanceLocked(p)
	}
}

// finishPerformanceLocked ends performance p, wakes its held enrollers, and
// resets the fabric for the instance's next performance. Every role body has
// returned by now (that is the finish condition), so the fabric is quiescent.
func (in *Instance) finishPerformanceLocked(p *performance) {
	if p.done {
		return
	}
	p.stopTimer()
	p.done = true
	perfCompletedTotal.Inc()
	in.recordPerf(p, trace.Event{Kind: trace.KindPerfEnd, Script: in.def.name, Performance: p.number})
	if p.traceID != 0 {
		in.traces.Remove(p.traceID)
	}
	if in.active == p {
		in.active = nil
	}
	in.releaseHeldLocked(p)
	p.fabric.Reset()
	p.fabric = nil
	in.notifyDrainLocked()
}

// addPendingLocked appends st to the pending set and invalidates the
// matcher and admission caches.
func (in *Instance) addPendingLocked(st *enrollState) {
	in.pending = append(in.pending, st)
	in.countOfferLocked(st, 1)
	in.pendingChangedLocked()
}

// dropAssignedLocked removes from the pending list, in one pass, the
// enrollments assignLocked has bound to a performance since the last call.
func (in *Instance) dropAssignedLocked() {
	kept := in.pending[:0]
	for _, st := range in.pending {
		if st.phase == phasePending {
			kept = append(kept, st)
		} else {
			in.countOfferLocked(st, -1)
		}
	}
	if len(kept) == len(in.pending) {
		return
	}
	clear(in.pending[len(kept):])
	in.pending = kept
	in.pendingChangedLocked()
}

// removePendingLocked withdraws the pending enrollment st.
func (in *Instance) removePendingLocked(st *enrollState) {
	if i := slices.Index(in.pending, st); i >= 0 {
		in.pending = slices.Delete(in.pending, i, i+1)
		in.countOfferLocked(st, -1)
		in.pendingChangedLocked()
	}
	st.phase = phaseLeft
}

// countOfferLocked adds d (±1) to the pending-offer count of st's role and
// keeps critMissing in step when the role gains its first offer or loses its
// last.
func (in *Instance) countOfferLocked(st *enrollState, d int) {
	r := st.offer.Role
	var n int
	if st.slot >= 0 {
		in.pendingBySlot[st.slot] += d
		n = in.pendingBySlot[st.slot]
	} else if n = in.pendingOpen[r] + d; n == 0 {
		delete(in.pendingOpen, r)
	} else {
		in.pendingOpen[r] = n
	}
	if (n == 0) != (n-d == 0) {
		in.countCriticalLocked(in.critMissing, st, int32(-d))
	}
}

// countCriticalLocked adds d to counts[i] for every critical set i that names
// st's role.
func (in *Instance) countCriticalLocked(counts []int32, st *enrollState, d int32) {
	for i := range counts {
		if in.table.Names(i, int(st.slot), st.offer.Role) {
			counts[i] += d
		}
	}
}

// pendingChangedLocked invalidates what was derived from the pending list.
func (in *Instance) pendingChangedLocked() {
	in.pendingCount.Store(int64(len(in.pending)))
	in.offersDirty = true
	in.notifyDrainLocked()
}

func (in *Instance) record(e trace.Event) {
	if in.nopTrace {
		return
	}
	in.tracer.Record(e)
}

// recordPerf records a per-performance event, stamping the performance's
// trace ID. When a sampler decided against tracing p, the event is skipped —
// that skip, decided once at initiation, is what makes sampled tracing cheap.
func (in *Instance) recordPerf(p *performance, e trace.Event) {
	if !p.sampled {
		return
	}
	e.TraceID = p.traceID
	in.record(e)
}

// slotOf returns r's index in in.roles, or -1 when r is not a closed role:
// a member of an open family, or no role of the script at all.
func (in *Instance) slotOf(r ids.RoleRef) int {
	if base, ok := in.base[r.Name]; ok {
		return in.slotFrom(base, r)
	}
	return -1
}

// slotFrom is slotOf given base, what in.base holds for r's name (any
// negative number when it holds nothing).
func (in *Instance) slotFrom(base int, r ids.RoleRef) int {
	if base < 0 || r.Index > len(in.roles) { // the bound keeps the sum below from overflowing
		return -1
	}
	if r.Index > 0 {
		base += r.Index - 1
	}
	if base < len(in.roles) && in.roles[base] == r {
		return base
	}
	return -1
}
