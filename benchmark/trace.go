package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

// Span kinds. One enrollment is a tree: an `enroll` root (Enroll call →
// return) whose children are `admit` (call → body entry), one `op.<kind>`
// per Ctx communication call, and `release` (body return → call return).
type spanKind uint8

const (
	kEnroll spanKind = iota
	kAdmit
	kRelease
	kOpSend
	kOpSendAll
	kOpRecv
	kOpRecvAny
	kOpSelect
	nKinds
)

var kindNames = [nKinds]string{
	"enroll", "admit", "release", "op.send", "op.sendall", "op.recv", "op.recvany", "op.select",
}

// span is one timed interval. Spans of one performance share Trace (the
// performance number, as rc.Performance() reports it); Parent is the
// enclosing enroll root's ID, 0 on the root itself.
type span struct {
	Trace  int    `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Role   string `json:"role"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// retainedSpans bounds the full span records one recorder keeps for the
// dump and the tree check; durations of every span are kept regardless.
const retainedSpans = 4000

// recorder collects the spans of one goroutine, so recording takes no lock.
type recorder struct {
	set       *traceSet
	role      string
	initiator bool // enrollments of the benchmark's operation, not of a resident role
	idBase    uint64
	n         uint64
	spans     []span
	durs      [nKinds][]int64
}

// traceSet owns every recorder of one run and the common clock origin.
type traceSet struct {
	t0   time.Time
	mu   sync.Mutex
	recs []*recorder
}

func newTraceSet() *traceSet { return &traceSet{t0: time.Now()} }

func (ts *traceSet) recorder(role string, initiator bool) *recorder {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	r := &recorder{set: ts, role: role, initiator: initiator, idBase: uint64(len(ts.recs)+1) << 40}
	ts.recs = append(ts.recs, r)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.set.t0)) }

func (r *recorder) newID() uint64 {
	r.n++
	return r.idBase | r.n
}

func (r *recorder) add(k spanKind, keep bool, trace int, parent uint64, start, end int64) {
	r.durs[k] = append(r.durs[k], end-start)
	if keep {
		r.spans = append(r.spans, span{
			Trace: trace, ID: r.newID(), Parent: parent,
			Name: kindNames[k], Role: r.role, Start: start, End: end,
		})
	}
}

// enrollFn is Instance.Enroll or Enroller.Enroll.
type enrollFn func(context.Context, core.Enrollment) (core.Result, error)

// enroll runs one enrollment and records its span tree. e.Body must be set:
// the body is where the benchmark can observe the layer from outside.
func (r *recorder) enroll(ctx context.Context, enroll enrollFn, e core.Enrollment) (core.Result, error) {
	body := e.Body
	keep := len(r.spans) < retainedSpans
	var root uint64
	if keep {
		root = r.newID()
	}
	callStart := r.now()
	var bodyEnd int64
	perf := 0
	e.Body = func(rc core.Ctx) error {
		entry := r.now()
		perf = rc.Performance()
		r.add(kAdmit, keep, perf, root, callStart, entry)
		err := body(&tracedCtx{Ctx: rc, rec: r, parent: root, perf: perf, keep: keep})
		bodyEnd = r.now()
		return err
	}
	res, err := enroll(ctx, e)
	end := r.now()
	if bodyEnd != 0 {
		r.add(kRelease, keep, perf, root, bodyEnd, end)
		r.durs[kEnroll] = append(r.durs[kEnroll], end-callStart)
		if keep {
			r.spans = append(r.spans, span{
				Trace: perf, ID: root, Name: kindNames[kEnroll], Role: r.role, Start: callStart, End: end,
			})
		}
	}
	return res, err
}

// tracedCtx times each communication call of a role body. The embedded
// Ctx's own Send→SendTag delegation does not pass through the wrapper, so
// each call is recorded once.
type tracedCtx struct {
	core.Ctx
	rec    *recorder
	parent uint64
	perf   int
	keep   bool
}

func (t *tracedCtx) done(k spanKind, start int64) {
	t.rec.add(k, t.keep, t.perf, t.parent, start, t.rec.now())
}

func (t *tracedCtx) Send(to ids.RoleRef, v any) error {
	defer t.done(kOpSend, t.rec.now())
	return t.Ctx.Send(to, v)
}

func (t *tracedCtx) SendTag(to ids.RoleRef, tag string, v any) error {
	defer t.done(kOpSend, t.rec.now())
	return t.Ctx.SendTag(to, tag, v)
}

func (t *tracedCtx) SendAll(tos []ids.RoleRef, v any) error {
	defer t.done(kOpSendAll, t.rec.now())
	return t.Ctx.SendAll(tos, v)
}

func (t *tracedCtx) Recv(from ids.RoleRef) (any, error) {
	defer t.done(kOpRecv, t.rec.now())
	return t.Ctx.Recv(from)
}

func (t *tracedCtx) RecvTag(from ids.RoleRef, tag string) (any, error) {
	defer t.done(kOpRecv, t.rec.now())
	return t.Ctx.RecvTag(from, tag)
}

func (t *tracedCtx) RecvAny() (ids.RoleRef, string, any, error) {
	defer t.done(kOpRecvAny, t.rec.now())
	return t.Ctx.RecvAny()
}

func (t *tracedCtx) Select(branches ...core.SelectBranch) (core.Selected, error) {
	defer t.done(kOpSelect, t.rec.now())
	return t.Ctx.Select(branches...)
}

// durations returns every recorded duration of kind k, sorted; with
// initiatorOnly it leaves out the resident roles, whose admit time is the
// wait for the next performance and not a cost.
func (ts *traceSet) durations(k spanKind, initiatorOnly bool) []int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var all []int64
	for _, r := range ts.recs {
		if initiatorOnly && !r.initiator {
			continue
		}
		all = append(all, r.durs[k]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// p50us is the median of kind k in microseconds; ok is false when no span
// of that kind was recorded.
func (ts *traceSet) p50us(k spanKind, initiatorOnly bool) (v float64, ok bool) {
	d := ts.durations(k, initiatorOnly)
	if len(d) == 0 {
		return 0, false
	}
	return float64(d[len(d)/2]) / 1e3, true
}

func (ts *traceSet) retained() []span {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	var all []span
	for _, r := range ts.recs {
		all = append(all, r.spans...)
	}
	return all
}

// dumpSpans writes spans as JSON lines, ordered by start time.
func dumpSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkTrees verifies that the spans form well-formed enrollment trees:
// every child names a root that exists, lies inside it, shares its trace,
// and does not overlap its siblings (a role body is one goroutine). It
// returns the share of root time that the children cover.
func checkTrees(spans []span) (coverage float64, err error) {
	roots := make(map[uint64]*span)
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			return 0, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			if s.Name != kindNames[kEnroll] {
				return 0, fmt.Errorf("span %d (%s) has no parent but is not an enroll root", s.ID, s.Name)
			}
			roots[s.ID] = s
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if len(roots) == 0 {
		return 0, fmt.Errorf("no enroll root among %d spans", len(spans))
	}
	var rootTotal, childTotal int64
	for id, kids := range children {
		root, ok := roots[id]
		if !ok {
			// A body that never returned to its Enroll call (cancelled at
			// teardown) leaves children without a root; they are not a tree.
			continue
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for i, k := range kids {
			if k.Trace != root.Trace {
				return 0, fmt.Errorf("span %d (%s) is in trace %d, its root in %d", k.ID, k.Name, k.Trace, root.Trace)
			}
			if k.Start < root.Start || k.End > root.End {
				return 0, fmt.Errorf("span %d (%s) [%d,%d] lies outside its root [%d,%d]", k.ID, k.Name, k.Start, k.End, root.Start, root.End)
			}
			if i > 0 && k.Start < kids[i-1].End {
				return 0, fmt.Errorf("span %d (%s) overlaps its sibling %d (%s)", k.ID, k.Name, kids[i-1].ID, kids[i-1].Name)
			}
			childTotal += k.End - k.Start
		}
		if kids[0].Name != kindNames[kAdmit] || kids[len(kids)-1].Name != kindNames[kRelease] {
			return 0, fmt.Errorf("root %d (%s) does not start with admit and end with release", id, root.Role)
		}
		rootTotal += root.End - root.Start
	}
	if rootTotal == 0 {
		return 0, fmt.Errorf("no enroll root has children")
	}
	return float64(childTotal) / float64(rootTotal), nil
}
