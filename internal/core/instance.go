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
	// owed lists, in order, the records owed a hand-off once mu is dropped
	// (see unlock).
	owed      records
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

// enrollState is the record of one enrollment, allocated once per Offer and
// never recycled (DESIGN.md "Scheduler internals" says who may still read it
// after its holder is done). The role, the process, the context, the
// arguments and the performance are kept here only; the RoleCtx inside reads
// them through its back pointer.
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
	// h is the holder's Handoff, told of the assignment, the turn-away or the
	// release; next links the record into a list of records: its
	// performance's held roles, then Instance.owed.
	h    Handoff
	next *enrollState
}

// Handoff is how the holder of an offer placed with Offer learns what became
// of it, instead of a goroutine parked on it: Enroll's is a wake channel, the
// remote host's the stream the offer came in on.
type Handoff interface {
	// Settled is called once, when offer o is settled: assigned to a
	// performance (err nil: the holder calls o.Perform) or turned away by
	// Close or Drain (ErrClosed, ErrDraining: the offer is gone). It may come
	// before Offer has returned o. An assignment is handed off with the
	// instance's lock held, so Settled must neither block nor call back into
	// the instance; a turn-away after the lock is dropped. The chaos WakeDelay
	// fault defers the assignment's call to a timer.
	Settled(o Offered, err error)
	// Released is called once for a role held under delayed termination,
	// when its performance ends: by the goroutine that ended it — its last
	// role, the abort path or Close — after that goroutine dropped the lock.
	// A role cut loose first (see Offered.Look) is not released.
	Released()
}

// wakeCh is Enroll's Handoff: every hand-off leaves a token, and the
// enroller, woken, re-reads its state under the lock, so a token says
// "look", not what happened. The channel is on loan from wakePool for the
// length of the Enroll call.
type wakeCh chan struct{}

// Settled leaves a token unless one is already there.
func (w wakeCh) Settled(Offered, error) {
	select {
	case w <- struct{}{}:
	default: // already signalled; the re-check under the lock makes a second token moot
	}
}

func (w wakeCh) Released() { w.Settled(Offered{}, nil) }

// wakePool lends wake channels to enrollments. A channel outlives the
// enrollment it served, and a signaller that was delayed past its
// enrollment's return (the chaos WakeDelay timer is one) then leaves its
// token with whoever holds the channel next. That is safe because of what a
// token means: the holder takes one more look at its own state under the
// lock, finds it unchanged and waits again; nothing is ever decided by a
// token alone.
var wakePool = sync.Pool{New: func() any { return make(wakeCh, 1) }}

// putWake returns an enrollment's wake channel, minus the token a signal
// that raced the enroller's own exit (Close, Drain, a cancelled context) may
// have left: the next holder would only look once for nothing, and need not.
func putWake(w wakeCh) {
	select {
	case <-w:
	default:
	}
	wakePool.Put(w)
}

// await blocks until ch delivers a token or ctx ends: the two sources an
// enroller ever waits on, and a plain receive when ctx cannot end.
func await(ctx context.Context, ch <-chan struct{}) {
	done := ctx.Done()
	if done == nil {
		<-ch
		return
	}
	select {
	case <-ch:
	case <-done:
	}
}

// castState is where one role stands in a performance.
type castState uint8

const (
	castUnfilled castState = iota // nobody plays it (yet)
	castFilled                    // assigned, body not finished
	castFinished                  // assigned and its body has returned
)

// castEntry is one role's line in a performance's cast: its state and, once
// filled, what admission of later joiners needs of the offer that fills it.
// id is the endpoint of a member of an open family, handed out by the fabric
// when the member is assigned; a closed role's endpoint is its slot.
type castEntry struct {
	state castState
	id    rendezvous.ID
	pid   ids.PID
	with  map[ids.RoleRef]ids.PIDSet
}

// performance is one collective activation of the instance's roles.
type performance struct {
	number int
	fabric *rendezvous.Fabric
	// cast is the performance's role table, indexed by the slots of
	// Instance.roles: the definition fixes the role collection, so who plays
	// what and who has finished is a position, not a key. Members of open
	// families, which have no slot, live in open, nil until one is assigned.
	// nAssigned and nFinished count the filled and the finished entries of
	// both.
	cast      []castEntry
	open      map[ids.RoleRef]*castEntry
	nAssigned int
	nFinished int
	// While membership is open (immediate initiation): admitSeen is the ID
	// of the last offer an admission pass has considered, and constrained
	// records whether any member carries a partner constraint.
	admitSeen uint64
	// doneCh is closed, once (released), when the performance ends or the
	// instance closes under it: RoleCtx.PerformanceDone.
	doneCh chan struct{}
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
}

// entry returns the cast entry of role r, whose slot is slot (-1 for a
// member of an open family); nil for an open member nobody was assigned.
func (p *performance) entry(slot int, r ids.RoleRef) *castEntry {
	if slot >= 0 {
		return &p.cast[slot]
	}
	return p.open[r]
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
	if e := p.open[r]; e != nil {
		return e.id
	}
	return p.fabric.Endpoint(rendezvous.Addr(r.String()))
}

// openRole names the member of an open family that plays at endpoint id.
func (p *performance) openRole(id rendezvous.ID) (ids.RoleRef, bool) {
	for r, e := range p.open {
		if e.id == id {
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
// performance ended (finish, abort) or the instance closed under it. doneCh
// closes, and the held roles move to the owed list, to be released when the
// lock is dropped.
func (in *Instance) releaseHeldLocked(p *performance) {
	if p.released {
		return
	}
	p.released = true
	close(p.doneCh)
	for st := p.held.head; st != nil; st = st.next {
		if st.phase == phaseHeld { // not cut loose
			in.endLocked(st, phaseOver)
		}
	}
	if p.held.head != nil {
		in.owed.push(p.held.head, p.held.tail)
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

// push appends the records first..last, already linked to each other.
func (l *records) push(first, last *enrollState) {
	if l.tail == nil {
		l.head = first
	} else {
		l.tail.next = first
	}
	l.tail = last
}

// unlock drops mu, then makes the hand-offs owed since it was taken: Released
// to the held roles of a performance that ended, Settled to the offers Close
// or Drain turned away. They are made outside the lock because a remote
// holder writes its stream's terminal frame in them. Every critical section
// that can end a performance or turn offers away is left through unlock.
func (in *Instance) unlock() {
	st := in.owed.head
	in.owed = records{}
	in.mu.Unlock()
	for st != nil {
		// An owed record is in an end phase, which nobody writes again.
		next := st.next
		switch st.phase {
		case phaseDrained:
			st.h.Settled(Offered{in, st}, ErrDraining)
		case phaseClosed:
			st.h.Settled(Offered{in, st}, ErrClosed)
		case phaseOver:
			st.h.Released()
		}
		st = next
	}
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
// under their names in the paper's notation.
func (in *Instance) newFabric() *rendezvous.Fabric {
	addrs := make([]rendezvous.Addr, len(in.roles))
	for slot, r := range in.roles {
		addrs[slot] = rendezvous.Addr(r.String())
	}
	fab := rendezvous.New()
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
	if in.closed {
		return
	}
	in.closed = true
	if p := in.active; p != nil {
		p.stopTimer()
		p.fabric.Close()
		in.releaseHeldLocked(p) // held roles leave now; the running ones unwind
	}
	in.turnAwayLocked(phaseClosed)
	close(in.closedCh)
}

// turnAwayLocked takes every pending offer off the instance, for Close and
// Drain (phase says which): each holder is told so once the lock is dropped.
func (in *Instance) turnAwayLocked(phase enrollPhase) {
	for _, st := range in.pending {
		st.phase = phase
		in.load.Add(-1)
		in.countOfferLocked(st, -1)
		in.owed.push(st, st)
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
		if in.closed {
			in.unlock()
			return nil
		}
		if in.active == nil && len(in.pending) == 0 {
			in.closed = true
			close(in.closedCh)
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
func (in *Instance) Enroll(ctx context.Context, e Enrollment) (Result, error) {
	w := wakePool.Get().(wakeCh)
	defer putWake(w)
	o, err := in.Offer(ctx, e, w)
	if err != nil {
		return Result{}, err
	}
	for waiting := true; waiting; {
		await(ctx, w)
		if waiting, err = o.Look(); err != nil {
			return Result{}, err
		}
	}
	res, held, err := o.Perform(e.Body)
	for held {
		await(ctx, w)
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
// does its wait, pending or held — but the instance does not watch it: a
// holder whose context has ended calls Look. e.Body is not consulted; the
// holder passes a body to Perform. Enroll is Offer with a wake channel for h.
func (in *Instance) Offer(ctx context.Context, e Enrollment, h Handoff) (Offered, error) {
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
	st := &enrollState{
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
		return false, err
	case phaseDrained:
		return false, ErrDraining
	case phaseClosed:
		return false, ErrClosed
	}
	return false, nil
}

// Perform runs the role body of an assigned offer on the calling goroutine —
// body, or the definition's body for the role when body is nil — and ends the
// role. It returns the enrollment's Result, its error, and whether the role
// is held: under delayed termination a finished role stays in its
// performance until the performance ends, and is then released through the
// Handoff, unless its context ends first (see Look). A role-body error is
// wrapped in *RoleError; a body that unwound because the performance was
// aborted reports the *AbortError; a body that finished its work reports
// success, whatever happens to the performance while the role is held.
func (o Offered) Perform(body RoleBody) (res Result, held bool, err error) {
	in, st := o.in, o.st
	perf, rc, r := st.perf, &st.rc, st.offer.Role
	if body == nil {
		body = in.def.bodyFor(r)
	}
	bodyErr := RunBody(body, rc)

	in.mu.Lock()
	in.recordPerf(perf, trace.Event{
		Kind: trace.KindFinish, Script: in.def.name,
		Performance: perf.number, Role: r, PID: st.offer.PID,
	})
	perf.entry(int(st.slot), r).state = castFinished
	perf.nFinished++
	if perf.fabric != nil {
		perf.fabric.TerminateID(rc.id)
	}
	if perf.membershipClosed && perf.nFinished == perf.nAssigned {
		in.finishPerformanceLocked(perf)
		in.advanceLocked() // the instance is free: let the next cast form
	}
	held = in.def.termination == DelayedTermination && !perf.done && !in.closed
	if held {
		st.phase = phaseHeld
		perf.held.push(st, st)
	} else {
		in.endLocked(st, phaseOver)
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
		doneCh: make(chan struct{}),
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
	if p.done || in.closed {
		return
	}
	in.abortPerformanceLocked(p, "deadline exceeded")
	in.advanceLocked()
}

// abortPerformanceLocked reclaims a wedged performance: it picks the
// culprit role, fails every blocked and future communication of the
// performance's fabric with an *AbortError, and ends the performance so the
// instance can accept the next cast. The culprit is the first (in role
// order) assigned role that has neither finished nor is blocked inside the
// fabric waiting to communicate — the paper's "partner that never
// communicates"; if every unfinished role is blocked communicating (a
// genuine cycle), the first unfinished role is blamed. The waiting set is
// taken as one fabric snapshot (Fabric.WaitingIDs) so the attribution
// reflects a state the fabric was actually in, rather than a series of
// per-role probes that racing commits could interleave with.
func (in *Instance) abortPerformanceLocked(p *performance, reason string) {
	in.abortAsLocked(p, ids.RoleRef{}, reason)
}

// abortAsLocked aborts performance p blaming culprit; a zero culprit means
// "attribute it" (see abortPerformanceLocked). The remote host passes an
// explicit culprit when it *knows* which role's enroller disconnected.
//
// Unlike Close, which takes the whole instance down, an abort is scoped to
// one performance. The performance keeps the fabric: a wedged role body may
// call into it arbitrarily late, and it keeps answering with the abort
// reason. The instance's next performance gets a new one.
func (in *Instance) abortAsLocked(p *performance, culprit ids.RoleRef, reason string) {
	if p.done {
		return
	}
	if culprit.Name == "" {
		waiting := p.fabric.WaitingIDs()
		// Slot order is role order; members of open families are merged in.
		unfinished := make([]ids.RoleRef, 0, p.nAssigned-p.nFinished)
		for slot := range p.cast {
			if p.cast[slot].state == castFilled {
				unfinished = append(unfinished, in.roles[slot])
			}
		}
		closed := len(unfinished)
		for r, e := range p.open {
			if e.state == castFilled {
				unfinished = append(unfinished, r)
			}
		}
		if len(unfinished) > closed {
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
	p.stopTimer()
	p.done = true
	p.fabric.Abort(p.abortErr)
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
// line of the cast and its RoleCtx — and hands the assignment off to exactly
// that offer's holder. st stays in the pending list, no longer pending; the
// caller follows its assignments with one dropAssignedLocked.
func (in *Instance) assignLocked(p *performance, st *enrollState) {
	r := st.offer.Role
	id := p.endpointLocked(int(st.slot), r)
	if st.slot < 0 { // a member of an open family gets its line now
		if p.open == nil {
			p.open = make(map[ids.RoleRef]*castEntry)
		}
		p.open[r] = new(castEntry)
	}
	*p.entry(int(st.slot), r) = castEntry{state: castFilled, id: id, pid: st.offer.PID, with: st.offer.With}
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
		// Injected fault: drop the inline hand-off and redeliver it late. The
		// holder waits until the redelivery (an enroller also until its
		// context ends); a correct scheduler tolerates the gap.
		time.AfterFunc(delay, func() { st.h.Settled(Offered{in, st}, nil) })
	} else {
		st.h.Settled(Offered{in, st}, nil)
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
	member := func(r ids.RoleRef, e *castEntry) {
		if e.state != castUnfilled {
			asg[r] = match.Offer{PID: e.pid, Role: r, With: e.with}
		}
	}
	for slot := range p.cast {
		member(in.roles[slot], &p.cast[slot])
	}
	for r, e := range p.open {
		member(r, e)
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
			p.fabric.TerminateID(rendezvous.ID(slot))
		}
	}
	// The fabric asks only about endpoints some blocked operation targets —
	// none at all when membership closes before any body has run. One past
	// the closed roles is a member of an open family: in the cast if it is
	// played, and absent otherwise.
	p.fabric.TerminateAbsentID(func(id rendezvous.ID) bool {
		if int(id) < len(p.cast) {
			return p.cast[id].state != castUnfilled
		}
		_, played := p.openRole(id)
		return played
	})
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
