package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/locktable"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
)

// workload is one cell of the 2×2: {in-process, remote} × {vectorised
// fan-out, guarded select}. The rates are a seventh to a quarter of the
// closed-loop capacity measured when the benchmark was sized (README.md has
// the numbers), so the open phase stays well clear of saturation when the
// machine has a slow spell.
type workload struct {
	name    string
	script  string // scriptd -script; empty for an in-process workload
	n       int    // scriptd -n / pattern size
	callers int    // closed phase: concurrent initiating callers
	workers int    // open phase: goroutines serving the arrival queue
	rate    float64
	warmup  int                         // operations run (and checked) before any measurement
	def     func(n int) core.Definition // in-process workloads: the instance's script
	start   func(e *env) (session, error)
}

func (w *workload) remote() bool { return w.script != "" }

var workloads = []*workload{
	{name: "local_star", n: 24, callers: 1, workers: 4, rate: 2000, warmup: 1000, def: patterns.StarBroadcast, start: startStar},
	{name: "remote_star", script: "star_broadcast", n: 24, callers: 1, workers: 4, rate: 400, warmup: 300, start: startStar},
	{name: "remote_buffer", script: "bounded_buffer", n: bufferCapacity, callers: 1, workers: 4, rate: 80, warmup: 50, start: startBuffer},
	{name: "local_lock", n: 3, callers: 2, workers: 4, rate: 3000, warmup: 2000, start: startLock,
		def: func(k int) core.Definition { return patterns.LockManager(k, patterns.OneReadAllWrite()) }},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is what one set-up of a workload runs against.
type env struct {
	w      *workload
	seed   int64
	enroll enrollFn
	trace  *traceSet    // nil in an untraced run
	on     *atomic.Bool // spans are recorded while set

	// Exactly one of the two is set.
	inst  *core.Instance
	child *child
	enr   *remote.Enroller
}

// opResult times the initiating Enroll call of one operation.
type opResult struct {
	start, end time.Time
	err        error
}

// session is a workload set up and warm: resident roles are enrolled and
// op runs one operation and checks its output.
type session interface {
	// op runs operation seq on behalf of the given worker; rec is nil
	// unless spans are being recorded.
	op(ctx context.Context, worker, seq int, rec *recorder) opResult
	// wrong counts output checks that failed and resident enrollments that
	// ended in an error, outside the initiating calls op reports itself.
	wrong() int64
	// stop ends the resident roles and waits for them.
	stop()
}

// cast runs the resident roles of a session.
type cast struct {
	e      *env
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	bad    atomic.Int64
}

func newCast(e *env) *cast {
	ctx, cancel := context.WithCancel(context.Background())
	return &cast{e: e, ctx: ctx, cancel: cancel}
}

func (c *cast) wrong() int64 { return c.bad.Load() }

func (c *cast) stop() {
	c.cancel()
	c.wg.Wait()
}

// do runs one enrollment, traced while the run is recording.
func (e *env) do(ctx context.Context, enr core.Enrollment, rec *recorder) (core.Result, error) {
	if rec != nil && e.on.Load() {
		return rec.enroll(ctx, e.enroll, enr)
	}
	return e.enroll(ctx, enr)
}

// resident re-enrolls one role until the cast stops. check sees every
// completed enrollment and reports whether its output is right. Any error
// other than the cancellation at stop counts: an *AbortError or a deadline
// is a failure, not a dropped sample.
func (c *cast) resident(enr core.Enrollment, check func(core.Result) bool) {
	var rec *recorder
	if c.e.trace != nil {
		rec = c.e.trace.recorder(enr.Role.String(), false)
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for c.ctx.Err() == nil {
			res, err := c.e.do(c.ctx, enr, rec)
			switch {
			case err != nil && c.ctx.Err() != nil:
				return
			case err != nil:
				c.bad.Add(1)
				time.Sleep(time.Millisecond) // do not spin on a broken instance
			case check != nil && !check(res):
				c.bad.Add(1)
			}
		}
	}()
}

// mix derives the value a performance carries from the seed and the
// performance number, so a recipient can check what it got against the
// performance it took part in without any shared table. The result is a
// non-negative int, which the wire codec returns as int.
func mix(seed int64, perf int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(perf)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int(x >> 2)
}

func workerPID(prefix string, worker int) ids.PID {
	return ids.PID(fmt.Sprintf("%s%d", prefix, worker))
}

// initiatorSession is a session whose operation is one enrollment of one
// role with one body: the star's sender, the buffer's producer.
type initiatorSession struct {
	*cast
	e    *env
	role ids.RoleRef
	pids []ids.PID // one per worker
	body core.RoleBody
}

func newInitiatorSession(e *env, role ids.RoleRef, pidPrefix string) *initiatorSession {
	s := &initiatorSession{cast: newCast(e), e: e, role: role}
	for w := 0; w < e.w.workers; w++ {
		s.pids = append(s.pids, workerPID(pidPrefix, w))
	}
	return s
}

func (s *initiatorSession) op(ctx context.Context, worker, _ int, rec *recorder) opResult {
	var r opResult
	r.start = time.Now()
	_, r.err = s.e.do(ctx, core.Enrollment{PID: s.pids[worker], Role: s.role, Body: s.body}, rec)
	r.end = time.Now()
	return r
}

// ---- star broadcast (local_star, remote_star) ----

// startStar enrolls n resident recipients. The bodies are the benchmark's
// own, shaped like patterns.StarBroadcast's, because a remote enrollment
// runs its body in the client and because the body is where the benchmark
// sees the Ctx calls; the in-process workload uses the same ones so the two
// differ only in the transport.
func startStar(e *env) (session, error) {
	n := e.w.n
	sender := ids.Role(patterns.RoleSender)
	tos := ids.FamilyMembers(patterns.RoleRecipient, n)
	s := newInitiatorSession(e, sender, "T")
	s.body = func(rc core.Ctx) error {
		return rc.SendAll(tos, mix(e.seed, rc.Performance()))
	}
	recv := func(rc core.Ctx) error {
		v, err := rc.Recv(sender)
		if err != nil {
			return err
		}
		rc.SetResult(0, v)
		return nil
	}
	for i := 1; i <= n; i++ {
		s.resident(
			core.Enrollment{PID: workerPID("R", i), Role: ids.Member(patterns.RoleRecipient, i), Body: recv},
			func(res core.Result) bool {
				return len(res.Values) == 1 && res.Values[0] == mix(e.seed, res.Performance)
			})
	}
	return s, nil
}

// ---- bounded buffer (remote_buffer) ----

const (
	bufferCapacity = 8
	bufferItems    = 32 // K: items one producer enrollment pushes before eof
)

// startBuffer enrolls the resident buffer and consumer. Their bodies copy
// patterns.BoundedBuffer's: scriptd serves the coordination only and the
// role bodies run here, one lock-step op round trip per Send/Select.
func startBuffer(e *env) (session, error) {
	producer := ids.Role(patterns.RoleProducer)
	consumer := ids.Role(patterns.RoleConsumer)
	buffer := ids.Role(patterns.RoleBuffer)
	s := newInitiatorSession(e, producer, "P")
	s.body = func(rc core.Ctx) error {
		base := mix(e.seed, rc.Performance())
		for i := 0; i < bufferItems; i++ {
			if err := rc.SendTag(buffer, "item", base+i); err != nil {
				return err
			}
		}
		return rc.SendTag(buffer, "eof", nil)
	}
	s.resident(core.Enrollment{PID: "B", Role: buffer, Body: func(rc core.Ctx) error {
		var queue []any
		done := false
		for !done || len(queue) > 0 {
			var head any
			if len(queue) > 0 {
				head = queue[0]
			}
			sel, err := rc.Select(
				core.RecvTagFrom(producer, "item").When(!done && len(queue) < bufferCapacity),
				core.RecvTagFrom(producer, "eof").When(!done),
				core.SendTagTo(consumer, "item", head).When(len(queue) > 0),
			)
			if err != nil {
				return err
			}
			switch sel.Index {
			case 0:
				queue = append(queue, sel.Val)
			case 1:
				done = true
			case 2:
				queue = queue[1:]
			}
		}
		return rc.SendTag(consumer, "eof", nil)
	}}, nil)
	s.resident(core.Enrollment{PID: "C", Role: consumer, Body: func(rc core.Ctx) error {
		var got []any
		for {
			sel, err := rc.Select(
				core.RecvTagFrom(buffer, "item"),
				core.RecvTagFrom(buffer, "eof"),
			)
			if err != nil {
				return err
			}
			if sel.Index == 1 {
				rc.Return(got...)
				return nil
			}
			got = append(got, sel.Val)
		}
	}}, func(res core.Result) bool {
		// The consumer must hold items 0…K−1 of its performance, in order.
		if len(res.Values) != bufferItems {
			return false
		}
		base := mix(e.seed, res.Performance)
		for i, v := range res.Values {
			if v != base+i {
				return false
			}
		}
		return true
	})
	return s, nil
}

// ---- lock manager, paper Fig. 5 (local_lock) ----

const (
	lockItems      = 8
	lockWriteShare = 0.10
	lockOps        = 1 << 16 // length of the pre-generated request mix
)

type lockReq struct {
	item  string
	write bool
}

type lockSession struct {
	*cast
	e       *env
	reqs    []lockReq
	owners  []locktable.Owner
	pids    []ids.PID
	reader  core.RoleBody
	writer  core.RoleBody
	shadow  shadowTable
	granted atomic.Int64
	asked   atomic.Int64
}

// shadowTable is the benchmark's own record of who holds what. An owner is
// entered after its grant returns and removed before its release is sent,
// so an entry is present only while the lock is really held; a write grant
// beside any other entry, or a read grant beside a writer, is therefore a
// wrong output and never a race of the check itself.
type shadowTable struct {
	mu    sync.Mutex
	items map[string]map[locktable.Owner]bool // owner → holds a write lock
}

func (t *shadowTable) acquire(item string, owner locktable.Owner, write bool) (ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	holders := t.items[item]
	if holders == nil {
		holders = make(map[locktable.Owner]bool)
		t.items[item] = holders
	}
	ok = true
	for other, otherWrites := range holders {
		if other != owner && (write || otherWrites) {
			ok = false
		}
	}
	holders[owner] = write
	return ok
}

func (t *shadowTable) release(item string, owner locktable.Owner) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.items[item], owner)
}

// startLock enrolls the three resident managers of
// patterns.LockManager(3, OneReadAllWrite()) with the definition's own
// bodies; every enrollment goes through env.do, which wraps the body's Ctx
// when spans are recorded.
func startLock(e *env) (session, error) {
	k := e.w.n
	strat := patterns.OneReadAllWrite()
	def := e.inst.Definition()
	s := &lockSession{cast: newCast(e), e: e}
	s.shadow.items = make(map[string]map[locktable.Owner]bool)
	var err error
	if s.reader, err = def.Body(ids.Role(patterns.RoleReader)); err != nil {
		return nil, err
	}
	if s.writer, err = def.Body(ids.Role(patterns.RoleWriter)); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	s.reqs = make([]lockReq, lockOps)
	for i := range s.reqs {
		s.reqs[i] = lockReq{
			item:  fmt.Sprintf("item%d", rng.Intn(lockItems)),
			write: rng.Float64() < lockWriteShare,
		}
	}
	for w := 0; w < e.w.workers; w++ {
		s.owners = append(s.owners, locktable.Owner(fmt.Sprintf("owner%d", w)))
		s.pids = append(s.pids, workerPID("C", w))
	}
	for i := 1; i <= k; i++ {
		role := ids.Member(patterns.RoleManager, i)
		body, err := def.Body(role)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.resident(core.Enrollment{
			PID: workerPID("M", i), Role: role, Args: []any{strat.NewTable()}, Body: body,
		}, nil)
	}
	return s, nil
}

// op is one lock request, timed, followed (untimed) by the release of a
// granted lock. A denied request is a right answer, not a failure.
func (s *lockSession) op(ctx context.Context, worker, seq int, rec *recorder) opResult {
	q := s.reqs[seq%len(s.reqs)]
	owner := s.owners[worker]
	role, body := ids.Role(patterns.RoleReader), s.reader
	if q.write {
		role, body = ids.Role(patterns.RoleWriter), s.writer
	}
	enr := core.Enrollment{
		PID: s.pids[worker], Role: role, Body: body,
		Args: []any{patterns.Request{Owner: owner, Item: q.item}},
	}
	var r opResult
	r.start = time.Now()
	res, err := s.e.do(ctx, enr, rec)
	r.end = time.Now()
	if err != nil {
		r.err = err
		return r
	}
	s.asked.Add(1)
	granted, ok := false, len(res.Values) == 1
	if ok {
		granted, ok = res.Values[0].(bool)
	}
	if !ok {
		r.err = errors.New("lock client returned no grant decision")
		return r
	}
	if !granted {
		return r
	}
	s.granted.Add(1)
	if !s.shadow.acquire(q.item, owner, q.write) {
		r.err = fmt.Errorf("lock on %s granted to %s beside a conflicting holder", q.item, owner)
	}
	s.shadow.release(q.item, owner)
	enr.Args = []any{patterns.Request{Owner: owner, Item: q.item, Release: true}}
	if _, err := s.e.do(ctx, enr, rec); err != nil && r.err == nil {
		r.err = fmt.Errorf("release: %w", err)
	}
	return r
}

func (s *lockSession) grantedShare() float64 {
	if n := s.asked.Load(); n > 0 {
		return float64(s.granted.Load()) / float64(n)
	}
	return 0
}
