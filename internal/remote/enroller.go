package remote

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/trace"
	"github.com/scriptabs/goscript/internal/wire"
)

var (
	hostsAdded   = metrics.Get(metrics.RemoteHostsAdded)
	hostsRemoved = metrics.Get(metrics.RemoteHostsRemoved)
)

// RetryPolicy configures how an Enroller re-offers an enrollment after a
// retryable failure (see Retryable). Backoff is exponential with full
// jitter: the wait before retry n is uniform in (0, min(MaxBackoff,
// BaseBackoff<<n)], raised to the host's RetryAfter hint when the failure
// carried one.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget, including the first offer.
	// 0 or 1 disables retries (the default: an Enroller without an explicit
	// policy behaves exactly as before).
	MaxAttempts int
	// BaseBackoff is the first retry's jitter window (0 = 25ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the jitter window (0 = 1s).
	MaxBackoff time.Duration
	// Seed, when non-zero, makes the jitter stream deterministic (tests,
	// chaos soaks). 0 seeds from the clock.
	Seed int64
}

// Retry backoff defaults when the corresponding RetryPolicy field is zero.
const (
	DefaultBaseBackoff = 25 * time.Millisecond
	DefaultMaxBackoff  = time.Second
)

// EnrollerConfig configures an Enroller.
type EnrollerConfig struct {
	// Script, when non-empty, asserts the host's script name during the
	// handshake; a mismatched host is rejected.
	Script string
	// HeartbeatInterval is how often an otherwise-quiet connection sends a
	// liveness frame. It must be comfortably under the host's heartbeat
	// timeout. 0 means the default of 3 seconds.
	HeartbeatInterval time.Duration
	// DialTimeout bounds connection establishment (0 = 5 seconds).
	DialTimeout time.Duration
	// Retry is the re-offer policy for retryable failures. The zero value
	// disables retries.
	Retry RetryPolicy
	// Breaker is the per-host circuit breaker policy. The zero value enables
	// the breaker with its defaults; set FailureThreshold negative to
	// disable it.
	Breaker BreakerConfig
	// Sampler, when non-nil, decides once per Enroll call whether the call
	// is traced. A sampled call mints a trace ID that rides the ENROLL
	// frame; the host's performance adopts it, so both processes record
	// events on one timeline. Enrollments arriving with a TraceID already
	// set bypass the sampler.
	Sampler trace.Sampler
	// Tracer, when non-nil, receives the client-side events of traced calls
	// (role start, send/recv, finish). Recording happens on the enrolling
	// goroutine; wrap heavyweight sinks in a trace.Async.
	Tracer trace.Tracer
	// Faults, when non-nil, injects network faults (chaos testing).
	Faults NetFaults

	// Balancer picks among the healthy hosts on each attempt (see
	// balancer.go). nil keeps the historical failover order: the first
	// healthy host in host order wins (rotated by attempt, so retries do
	// not hammer one host). NewEnrollerRegistry defaults to NewLeastLoaded.
	Balancer Balancer

	// MaxProtocolVersion caps the wire protocol version the enroller
	// negotiates (0 = wire.MaxVersion). Setting 1 pins the client to the v1
	// JSON protocol. Against a host that only speaks v1, the enroller falls
	// back to v1 automatically regardless of this setting.
	MaxProtocolVersion int
	// MaxStreamsPerConn caps concurrent enrollments multiplexed onto one v2
	// connection (0 = DefaultMaxStreamsPerConn). 1 gives every enrollment a
	// dedicated connection, v1-style, while keeping the v2 codec.
	MaxStreamsPerConn int
}

// DefaultHeartbeatInterval is the client's liveness cadence when
// EnrollerConfig.HeartbeatInterval is zero.
const DefaultHeartbeatInterval = 3 * time.Second

// Enroller enrolls this process into a script served by one or more remote
// Hosts. Per host it keeps a pool of conversations (each multiplexing up to
// MaxStreamsPerConn concurrent enrollments on a v2 connection, one at a time
// on a v1 connection) and a circuit breaker. The host set is either fixed
// (NewEnrollerMulti) or follows a registry subscription
// (NewEnrollerRegistry); each attempt picks a host by composing breaker
// state, recent-shed demotion, and the configured Balancer.
type Enroller struct {
	cfg EnrollerConfig

	hostsMu sync.RWMutex
	hosts   []*hostState

	rngMu sync.Mutex
	rng   *rand.Rand

	// Registry wiring (nil/zero on static enrollers): the subscription
	// goroutine replaces the host set on membership changes, and picks
	// refresh load digests from Snapshot at most every loadRefreshInterval.
	reg           registry.Registry
	unsub         func()
	loadRefreshed atomic.Int64 // unix nanos of the last digest refresh

	pickCount *metrics.Counter

	mu     sync.Mutex
	closed bool
}

// hostState is one host's address, pool of conversations, breaker, and
// last known load digest.
type hostState struct {
	addr string
	brk  breaker

	// dialMu serializes dials so a concurrent burst of enrollments shares
	// the first dial's stream capacity instead of stampeding.
	dialMu sync.Mutex
	muxMu  sync.Mutex
	muxes  []*muxConn
	// gone marks a host retired from the set (left the registry view, or
	// the enroller closed): a mux dialed concurrently with the removal is
	// retired on insert instead of lingering unretired.
	gone atomic.Bool

	// loadMu guards the registry-fed load digest; lastShed (unix nanos of
	// the newest first-hand overload/drain rejection) demotes the host in
	// pickHost for shedDemoteWindow even while its breaker is still closed.
	loadMu   sync.Mutex
	load     registry.Load
	loadAt   time.Time
	hasLoad  bool
	lastShed atomic.Int64
}

// setLoad records a registry-announced load digest.
func (hs *hostState) setLoad(l registry.Load, at time.Time) {
	hs.loadMu.Lock()
	hs.load = l
	hs.loadAt = at
	hs.hasLoad = true
	hs.loadMu.Unlock()
}

// view snapshots the host for a balancer decision. The breaker is read
// without claiming its half-open probe token.
func (hs *hostState) view(now time.Time) HostView {
	st, _ := hs.brk.snapshot()
	hs.loadMu.Lock()
	v := HostView{Addr: hs.addr, Breaker: st, Load: hs.load, HasLoad: hs.hasLoad}
	if hs.hasLoad {
		v.LoadAge = now.Sub(hs.loadAt)
	}
	hs.loadMu.Unlock()
	v.Stale = !v.HasLoad || v.LoadAge > DefaultStaleLoadAfter
	return v
}

// HostHealth is one host's circuit-breaker view, for introspection.
type HostHealth struct {
	Addr     string
	State    BreakerState
	Failures int // consecutive counted failures while closed
}

// NewEnroller creates an enroller for the single host at addr. No
// connection is made until the first Enroll.
func NewEnroller(addr string, cfg EnrollerConfig) *Enroller {
	return NewEnrollerMulti([]string{addr}, cfg)
}

// NewEnrollerMulti creates an enroller that fails over across addrs (tried
// in order; len(addrs) must be ≥ 1). No connection is made until the first
// Enroll. This is the static special case of the registry-backed enroller:
// a fixed host list and (unless cfg.Balancer says otherwise) first-healthy
// failover order.
func NewEnrollerMulti(addrs []string, cfg EnrollerConfig) *Enroller {
	if len(addrs) == 0 {
		panic("script/remote: NewEnrollerMulti requires at least one address")
	}
	e := newEnroller(cfg)
	for _, addr := range addrs {
		e.hosts = append(e.hosts, e.newHostState(addr))
	}
	return e
}

// NewEnrollerRegistry creates an enroller whose host set follows a registry
// subscription for cfg.Script: hosts announced to the registry join the
// candidate set, evicted or withdrawn hosts leave it (pooled connections
// are retired: idle ones close, enrollments in flight keep theirs and
// drain out), and announced load digests feed the balancer.
// cfg.Balancer defaults to NewLeastLoaded. The registry is not closed by
// Enroller.Close; it may back any number of enrollers.
func NewEnrollerRegistry(reg registry.Registry, cfg EnrollerConfig) *Enroller {
	if reg == nil {
		panic("script/remote: NewEnrollerRegistry requires a registry")
	}
	if cfg.Script == "" {
		panic("script/remote: NewEnrollerRegistry requires cfg.Script (hosts are discovered per script)")
	}
	if cfg.Balancer == nil {
		cfg.Balancer = NewLeastLoaded()
	}
	e := newEnroller(cfg)
	e.reg = reg
	ch, cancel := reg.Subscribe(cfg.Script)
	e.unsub = cancel
	e.applyEndpoints(reg.Snapshot(cfg.Script))
	go func() {
		for eps := range ch {
			e.applyEndpoints(eps)
		}
	}()
	return e
}

// newEnroller applies the config defaults shared by every constructor.
func newEnroller(cfg EnrollerConfig) *Enroller {
	orDefault(&cfg.HeartbeatInterval, DefaultHeartbeatInterval)
	orDefault(&cfg.DialTimeout, 5*time.Second)
	orDefault(&cfg.Retry.MaxAttempts, 1)
	orDefault(&cfg.Retry.BaseBackoff, DefaultBaseBackoff)
	orDefault(&cfg.Retry.MaxBackoff, DefaultMaxBackoff)
	cfg.Breaker.FailureThreshold = cmp.Or(cfg.Breaker.FailureThreshold, DefaultFailureThreshold) // negative disables
	orDefault(&cfg.Breaker.Cooldown, DefaultBreakerCooldown)
	if cfg.Balancer == nil {
		cfg.Balancer = NewFailover()
	}
	orDefault(&cfg.MaxProtocolVersion, wire.MaxVersion)
	orDefault(&cfg.MaxStreamsPerConn, DefaultMaxStreamsPerConn)
	return &Enroller{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cmp.Or(cfg.Retry.Seed, time.Now().UnixNano()))),
		pickCount: metrics.Get(metrics.BalancerPicksPrefix + cfg.Balancer.Name() + "_total"),
	}
}

// orDefault sets a config field that is not positive to its default d.
func orDefault[T ~int | ~int64](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func (e *Enroller) newHostState(addr string) *hostState {
	return &hostState{
		addr: addr,
		brk: breaker{
			threshold: e.cfg.Breaker.FailureThreshold,
			cooldown:  e.cfg.Breaker.Cooldown,
		},
	}
}

// hostList returns the current host slice. The slice is copy-on-write:
// applyEndpoints installs a fresh slice, so holders may iterate it without
// the lock.
func (e *Enroller) hostList() []*hostState {
	e.hostsMu.RLock()
	hosts := e.hosts
	e.hostsMu.RUnlock()
	return hosts
}

// applyEndpoints replaces the host set with the registry's view, keeping
// the state (breaker, pool, load history) of hosts that persist and
// retiring the pooled connections of hosts that left.
func (e *Enroller) applyEndpoints(eps []registry.Endpoint) {
	now := time.Now()
	e.hostsMu.Lock()
	old := make(map[string]*hostState, len(e.hosts))
	for _, hs := range e.hosts {
		old[hs.addr] = hs
	}
	hosts := make([]*hostState, 0, len(eps))
	for _, ep := range eps {
		hs := old[ep.Addr]
		if hs != nil {
			delete(old, ep.Addr)
		} else {
			hs = e.newHostState(ep.Addr)
			hostsAdded.Inc()
		}
		hs.setLoad(ep.Load, now)
		hosts = append(hosts, hs)
	}
	e.hosts = hosts
	e.hostsMu.Unlock()
	// Hosts that left the view shed their idle connections; connections
	// with enrollments in flight are only retired — a draining host
	// withdraws its announcement before waiting out in-flight work, so
	// killing active streams here would abort exactly the performances the
	// drain is protecting (and a transient gossip flap would do the same to
	// a healthy host).
	for _, hs := range old {
		hostsRemoved.Inc()
		hs.retireMuxes()
	}
}

// maybeRefreshLoads pulls fresh load digests from the registry, at most
// once per loadRefreshInterval across all enrolling goroutines, so the
// balancer sees digests as fresh as the registry has without a snapshot
// per enrollment.
func (e *Enroller) maybeRefreshLoads(now time.Time) {
	if e.reg == nil {
		return
	}
	last := e.loadRefreshed.Load()
	if now.UnixNano()-last < int64(loadRefreshInterval) {
		return
	}
	if !e.loadRefreshed.CompareAndSwap(last, now.UnixNano()) {
		return // another goroutine is refreshing
	}
	byAddr := make(map[string]registry.Load)
	for _, ep := range e.reg.Snapshot(e.cfg.Script) {
		byAddr[ep.Addr] = ep.Load
	}
	for _, hs := range e.hostList() {
		if l, ok := byAddr[hs.addr]; ok {
			hs.setLoad(l, now)
		}
	}
}

// loadRefreshInterval bounds how often pickHost re-reads load digests from
// the registry.
const loadRefreshInterval = 25 * time.Millisecond

// Hosts reports each current host's breaker state, in host order.
func (e *Enroller) Hosts() []HostHealth {
	hosts := e.hostList()
	out := make([]HostHealth, len(hosts))
	for i, hs := range hosts {
		st, fails := hs.brk.snapshot()
		out[i] = HostHealth{Addr: hs.addr, State: st, Failures: fails}
	}
	return out
}

// Close closes the idle connections and, on a registry-backed enroller,
// cancels the subscription. Enrollments in flight keep their connections
// and fail or finish on their own.
func (e *Enroller) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.unsub != nil {
		e.unsub()
	}
	for _, hs := range e.hostList() {
		hs.retireMuxes()
	}
	return nil
}

// Retryable reports whether an Enroll failure is safe and useful to offer
// again. Safe means no performance can have run: dial and handshake
// failures, overload sheds, drain rejections, and open circuits all reject
// the offer before any assignment, and a connection lost before the
// OFFER-ACK reached this side cannot have run the body here. A connection
// lost after it (ErrConnLost), an aborted performance, or a role-body error
// is not retryable — work happened, and re-offering could duplicate it.
func Retryable(err error) bool {
	var re *core.RoleError
	switch {
	case err == nil, errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, core.ErrPerformanceAborted), errors.As(err, &re):
		return false
	}
	return errors.Is(err, ErrDialFailed) || errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrDraining) ||
		errors.Is(err, ErrCircuitOpen) || errors.Is(err, ErrNoHosts) || errors.As(err, new(lostBeforeAck))
}

// countsForBreaker reports whether a failure is evidence of an unhealthy
// host: unreachable (dial), flaky (lost connection), saturated (overload
// shed), or going away (draining). Performance-level failures — aborts,
// role errors — prove the host is up and do not count.
func countsForBreaker(err error) bool {
	return errors.Is(err, ErrDialFailed) || errors.Is(err, ErrConnLost) ||
		errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrDraining)
}

// retryAfterHint extracts the host's backoff hint from an overload
// rejection, or 0.
func retryAfterHint(err error) time.Duration {
	var oe *core.OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// backoff returns the full-jitter wait before retry attempt n (0-based),
// floored at the host's hint.
func (e *Enroller) backoff(n int, hint time.Duration) time.Duration {
	w := e.cfg.Retry.MaxBackoff
	if shifted := e.cfg.Retry.BaseBackoff << n; n < 32 && shifted > 0 && shifted < w {
		w = shifted
	}
	e.rngMu.Lock()
	d := time.Duration(e.rng.Int63n(int64(w))) + 1
	e.rngMu.Unlock()
	if hint > d {
		d = hint
	}
	return d
}

// shedDemoteWindow is how long a first-hand overload/drain rejection keeps
// a host demoted below hosts that have not shed, even while its breaker is
// still closed.
const shedDemoteWindow = time.Second

// pickHost chooses the host for one attempt, or nil when every circuit is
// open and no probe is due. An open host whose cooldown has elapsed claims
// its half-open probe and takes the attempt outright; otherwise candidates
// are tiered:
//
//  1. preferred — breaker closed and no first-hand shed within
//     shedDemoteWindow; the Balancer picks among these.
//  2. demoted — breaker closed but recently shedding; consulted only when
//     tier 1 is empty, again through the Balancer.
//
// Host order is rotated by attempt before tiering, so retries (and static
// configs under the default failover balancer) do not restart the scan at
// index 0 every time. Breaker classification uses snapshot(), so a probe
// token is only ever claimed for the host actually chosen.
func (e *Enroller) pickHost(now time.Time, attempt int) *hostState {
	e.maybeRefreshLoads(now)
	hosts := e.hostList()
	n := len(hosts)
	if n == 0 {
		return nil
	}
	// The tiers of a short host list fit these arrays and stay on the stack.
	var pbuf, dbuf [4]*hostState
	preferred, demoted := pbuf[:0], dbuf[:0]
	for k := 0; k < n; k++ {
		hs := hosts[(attempt+k)%n]
		st, _ := hs.brk.snapshot()
		switch st {
		case BreakerClosed:
			if shed := hs.lastShed.Load(); shed != 0 && now.UnixNano()-shed < int64(shedDemoteWindow) {
				demoted = append(demoted, hs)
			} else {
				preferred = append(preferred, hs)
			}
		case BreakerOpen:
			// A due half-open probe claims its token and takes this attempt
			// outright: probing is the only way an open host recovers, and
			// in failover configs it is how a recovered primary wins its
			// traffic back (the PR 5 semantics). At most one enrollment per
			// cooldown rides a probe, so healthy hosts lose almost nothing.
			if hs.brk.allow(now) {
				return hs
			}
		default:
			// Half-open with its probe already claimed by another attempt:
			// skip; the probe's outcome will resolve the host either way.
		}
	}
	for _, tier := range [][]*hostState{preferred, demoted} {
		if len(tier) == 0 {
			continue
		}
		i := e.balance(tier, now)
		// allow can refuse if the breaker opened since the snapshot (a
		// concurrent failure burst); walk the rest of the tier from the
		// balanced choice rather than giving up.
		for k := range tier {
			if hs := tier[(i+k)%len(tier)]; hs.brk.allow(now) {
				return hs
			}
		}
	}
	return nil
}

// balance runs the configured Balancer over one tier and returns the
// chosen index (clamped; a misbehaving balancer falls back to 0).
func (e *Enroller) balance(tier []*hostState, now time.Time) int {
	e.pickCount.Inc()
	if len(tier) == 1 {
		return 0
	}
	views := make([]HostView, len(tier))
	for i, hs := range tier {
		views[i] = hs.view(now)
	}
	e.rngMu.Lock()
	i := e.cfg.Balancer.Pick(views, e.rng)
	e.rngMu.Unlock()
	if i < 0 || i >= len(tier) {
		i = 0
	}
	return i
}

// observe feeds one attempt's outcome into the chosen host's breaker and
// shed-demotion clock.
func (e *Enroller) observe(hs *hostState, err error) {
	switch {
	case err == nil:
		hs.brk.onSuccess()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		hs.brk.onNeutral()
	case countsForBreaker(err):
		now := time.Now()
		hs.brk.onFailure(now)
		if errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrDraining) {
			hs.lastShed.Store(now.UnixNano())
		}
	default:
		// The host answered — performance-level failure, host healthy.
		hs.brk.onSuccess()
	}
}

// noHostErr describes an attempt that found no usable host.
func (e *Enroller) noHostErr() error {
	n := len(e.hostList())
	if n == 0 {
		return ErrNoHosts
	}
	return fmt.Errorf("%w: all %d host(s) cooling down", ErrCircuitOpen, n)
}

// Enroll offers to play enr.Role at a remote host and blocks until the
// process is released, exactly like Instance.Enroll — except the role body
// must be supplied in enr.Body, because the definition lives in the serving
// process. The body runs in *this* process, against a Ctx whose operations
// are proxied over the connection; ctx cancellation withdraws a pending
// offer (and, mid-performance, aborts the performance host-side with this
// role as culprit).
//
// Failures that reject the offer before any assignment (see Retryable) are
// re-offered under cfg.Retry, rotating across hosts as circuit breakers
// open and close; the final error is the last attempt's.
func (e *Enroller) Enroll(ctx context.Context, enr core.Enrollment) (core.Result, error) {
	if enr.Body == nil {
		return core.Result{}, errors.New("script/remote: Enroll requires Enrollment.Body (the definition lives in the host)")
	}
	// The sampling decision is made once per Enroll call, before the retry
	// loop, so every re-offer of the same call shares one trace ID.
	if enr.TraceID == 0 && e.cfg.Sampler != nil {
		if id, ok := e.cfg.Sampler.Sample(); ok {
			enr.TraceID = id
		}
	}
	return e.enroll(ctx, nil, enr)
}

// enroll is the retry loop of every enrollment. pinned nil means a host is
// picked per attempt; a bloc member passes the host its bloc was offered at,
// because its With constraints bind it to co-members there.
func (e *Enroller) enroll(ctx context.Context, pinned *hostState, enr core.Enrollment) (core.Result, error) {
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return core.Result{}, err
		}
		hs := pinned
		if hs == nil {
			hs = e.pickHost(time.Now(), attempt)
		}
		var res core.Result
		var err error
		if hs == nil {
			err = e.noHostErr()
		} else {
			res, err = e.enrollOnce(ctx, hs, enr)
			e.observe(hs, err)
		}
		if err == nil {
			return res, nil
		}
		if err = e.again(ctx, attempt, err, Retryable(err)); err != nil {
			return core.Result{}, err
		}
	}
}

// again is the step between two attempts of any retry loop. It returns the
// error the loop ends with — err itself when the attempt budget is spent or
// the failure is not retryable, the context's when that ends first — or nil
// once the backoff has been waited out and the next attempt may go. It is a
// plain call, not a loop taking the attempt as a function value: a closure
// per enrollment is an allocation the enrollment path does not otherwise make.
func (e *Enroller) again(ctx context.Context, attempt int, err error, retryable bool) error {
	if attempt+1 >= e.cfg.Retry.MaxAttempts || !retryable {
		return err
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(e.backoff(attempt, retryAfterHint(err))):
		return nil
	}
}

// EnrollBloc enrolls a whole cast atomically at ONE remote host, the remote
// counterpart of Instance.EnrollBloc: every member's With constraints are
// bound to the other members' PIDs, so co-performers can only rendezvous
// with each other — which is exactly why the bloc must land on a single
// host (members split across hosts would wait forever for partners that
// enrolled elsewhere). Each member needs a Body, and members must have
// distinct PIDs and distinct roles.
//
// Failure semantics: if any member fails terminally (abort, role error,
// exhausted retries), the remaining members' offers are withdrawn and
// EnrollBloc returns the joined errors. When every member failed
// retryably before any assignment — the chosen host was full or draining —
// the whole bloc re-offers at a (rotated) newly-picked host under
// cfg.Retry.
func (e *Enroller) EnrollBloc(ctx context.Context, members []core.Enrollment) ([]core.Result, error) {
	bound, err := core.BindBloc(members)
	if err != nil {
		return nil, err
	}
	for _, m := range bound {
		if m.Body == nil {
			return nil, errors.New("script/remote: EnrollBloc requires Enrollment.Body on every member (the definition lives in the host)")
		}
	}
	// One trace decision for the whole bloc: co-performers share a
	// performance, so they share a timeline.
	var tid trace.TraceID
	for _, m := range bound {
		if m.TraceID != 0 {
			tid = m.TraceID
			break
		}
	}
	if tid == 0 && e.cfg.Sampler != nil {
		if id, ok := e.cfg.Sampler.Sample(); ok {
			tid = id
		}
	}
	for i := range bound {
		bound[i].TraceID = tid
	}

	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var res []core.Result
		var err error
		retryable := true
		if hs := e.pickHost(time.Now(), attempt); hs == nil {
			err = e.noHostErr()
		} else {
			res, err, retryable = e.blocAttempt(ctx, hs, bound)
		}
		if err == nil {
			return res, nil
		}
		if err = e.again(ctx, attempt, err, retryable); err != nil {
			return nil, err
		}
	}
}

// blocAttempt offers every member of a bound cast at one host concurrently.
// Members retry individually against that same host (the cast's With
// constraints only resolve there); the first terminal member failure
// cancels the others' offers. retryable reports whether re-offering the
// whole bloc at a fresh host is safe: true only when no member was
// assigned and every failure rejected the offer cleanly.
func (e *Enroller) blocAttempt(ctx context.Context, hs *hostState, bound []core.Enrollment) (res []core.Result, err error, retryable bool) {
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		idx int
		res core.Result
		err error
	}
	ch := make(chan outcome, len(bound))
	for i := range bound {
		go func(i int, m core.Enrollment) {
			r, merr := e.enroll(bctx, hs, m)
			if merr != nil {
				// Terminal for this member — withdraw the co-members still
				// pending; their With constraints can never be satisfied.
				cancel()
			}
			ch <- outcome{i, r, merr}
		}(i, bound[i])
	}
	res = make([]core.Result, len(bound))
	errs := make([]error, len(bound))
	for range bound {
		o := <-ch
		res[o.idx], errs[o.idx] = o.res, o.err
	}
	var joined []error
	succeeded := 0
	retryable = true
	for i, merr := range errs {
		switch {
		case merr == nil:
			succeeded++
		case errors.Is(merr, context.Canceled) && ctx.Err() == nil:
			// Withdrawn by the bloc teardown, not by the caller: safe to
			// re-offer, and not the interesting error.
			joined = append(joined, fmt.Errorf("%s: withdrawn with bloc", bound[i].PID))
		default:
			if !Retryable(merr) {
				retryable = false
			}
			joined = append(joined, fmt.Errorf("%s: %w", bound[i].PID, merr))
		}
	}
	if len(joined) == 0 {
		return res, nil, false
	}
	// Any member assigned (succeeded or aborted mid-performance) means work
	// may have happened: never re-offer the bloc.
	if succeeded > 0 {
		retryable = false
	}
	return nil, errors.Join(joined...), retryable
}

// enrollOnce runs one offer against one host, start to release: claim a
// stream slot on a pooled conversation (dialing when none has room), then
// run the enrollment conversation on it.
func (e *Enroller) enrollOnce(ctx context.Context, hs *hostState, enr core.Enrollment) (core.Result, error) {
	mc, err := e.acquireMux(ctx, hs)
	if err != nil {
		return core.Result{}, err
	}
	return e.enrollMux(ctx, mc, enr)
}
