package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/trace"
)

// This file pins the cast table against what it replaced. refCast keeps a
// performance's role state the way the runtime kept it before the table —
// an `assigned` map from role to offer and a `finished` role set — and
// answers every question the runtime asks of that state with the code the
// runtime used, copied here as internal/match/reference_test.go copies the
// old matcher. TestCastTableMatchesMapReference walks seeded scenarios
// through a real Instance and through refCast in lock step and compares
// everything a role body or a tracer can observe.

// castEvent is one observable formation event of a performance.
type castEvent struct {
	kind trace.Kind
	role ids.RoleRef
}

func (e castEvent) String() string { return fmt.Sprintf("%v(%s)", e.kind, e.role) }

// refCast is performance 1 of one scenario, map-keyed.
type refCast struct {
	def      Definition
	roles    []ids.RoleRef // the closed universe, ids order
	critSets []ids.RoleSet // effective: declared, or the closed universe

	pending []match.Offer
	started bool

	assigned         match.Assignment
	finished         ids.RoleSet
	membershipClosed bool
	constrained      bool
	openMax          map[string]int
	critUnfilled     []int
	events           []castEvent
}

func newRefCast(def Definition) *refCast {
	rc := &refCast{def: def, roles: def.Roles(), critSets: def.criticalSets}
	if len(rc.critSets) == 0 {
		rc.critSets = []ids.RoleSet{def.closedRoles()}
	}
	return rc
}

// offer is one enrollment arriving: the coordinator step of the parent's
// advanceLocked for a performance that has not started or is still open.
func (rc *refCast) offer(o match.Offer) {
	rc.pending = append(rc.pending, o)
	if !rc.started {
		if rc.def.initiation == ImmediateInitiation {
			rc.start(nil)
		} else {
			universe, crit := rc.def.closedRoles(), rc.def.criticalSets
			for _, p := range rc.pending {
				if !universe.Contains(p.Role) { // an offered member of an open family
					universe.Add(p.Role)
					crit = rc.critSets
				}
			}
			if asg, ok := match.Find(match.Problem{
				Roles: universe, CriticalSets: crit, Offers: rc.pending, Fairness: match.FIFO,
			}); ok {
				rc.start(asg)
			}
			return
		}
	}
	if rc.def.initiation == ImmediateInitiation && !rc.membershipClosed {
		rc.admit(o)
	}
}

// start is the parent's startPerformanceLocked.
func (rc *refCast) start(asg match.Assignment) {
	rc.started = true
	rc.assigned = asg
	rc.finished = make(ids.RoleSet, len(asg))
	if asg == nil {
		rc.assigned = make(match.Assignment)
		rc.critUnfilled = make([]int, len(rc.critSets))
		for i, cs := range rc.critSets {
			rc.critUnfilled[i] = len(cs)
		}
		return
	}
	for _, r := range asg.Roles().Sorted() {
		rc.assign(asg[r])
	}
	rc.closeMembership()
}

// assign is the part of the parent's assignLocked a body can observe.
func (rc *refCast) assign(o match.Offer) {
	rc.pending = slices.DeleteFunc(rc.pending, func(p match.Offer) bool { return p.ID == o.ID })
	if r := o.Role; slices.Index(rc.roles, r) < 0 && r.Index > rc.openMax[r.Name] {
		if rc.openMax == nil {
			rc.openMax = make(map[string]int)
		}
		rc.openMax[r.Name] = r.Index
	}
	rc.events = append(rc.events, castEvent{trace.KindStart, o.Role})
}

// admit is the parent's admitLocked for a batch of one new offer.
func (rc *refCast) admit(o match.Offer) {
	if _, filled := rc.assigned[o.Role]; filled {
		return
	}
	constrained := len(o.With) > 0
	if (constrained || rc.constrained) && !match.CanJoin(rc.assigned, o) {
		return
	}
	rc.assigned[o.Role] = o
	rc.constrained = rc.constrained || constrained
	for i, cs := range rc.critSets {
		if cs.Contains(o.Role) {
			rc.critUnfilled[i]--
		}
	}
	rc.assign(o)
	if slices.Contains(rc.critUnfilled, 0) {
		rc.closeMembership()
	}
}

// closeMembership is the parent's closeMembershipLocked.
func (rc *refCast) closeMembership() {
	if rc.membershipClosed {
		return
	}
	rc.membershipClosed = true
	for _, r := range rc.roles {
		if _, filled := rc.assigned[r]; !filled {
			rc.events = append(rc.events, castEvent{trace.KindAbsent, r})
		}
	}
}

// availability is the parent's RoleCtx.availabilityLocked.
func (rc *refCast) availability(r ids.RoleRef) peerState {
	if err := rc.def.checkRole(r); err != nil {
		return peerUnknown
	}
	if rc.finished.Contains(r) {
		return peerFinished
	}
	if _, filled := rc.assigned[r]; filled {
		return peerOK
	}
	if rc.membershipClosed {
		return peerAbsent
	}
	return peerOK
}

// terminated, filled and familySize are the parent's RoleCtx predicates.
func (rc *refCast) terminated(r ids.RoleRef) bool {
	if rc.finished.Contains(r) {
		return true
	}
	if _, filled := rc.assigned[r]; filled {
		return false
	}
	return rc.membershipClosed
}

func (rc *refCast) filled(r ids.RoleRef) bool {
	_, ok := rc.assigned[r]
	return ok
}

func (rc *refCast) familySize(name string) int {
	decl, ok := rc.def.decls[name]
	if !ok || !decl.family {
		return 0
	}
	if decl.size > 0 {
		return decl.size
	}
	return rc.openMax[name]
}

// commErr is the parent's mapCommErr for a peer the fabric reported
// terminated under a blocked operation.
func (rc *refCast) commErr(peer ids.RoleRef) error {
	if _, wasFilled := rc.assigned[peer]; wasFilled {
		return fmt.Errorf("%w: %s", ErrRoleFinished, peer)
	}
	return fmt.Errorf("%w: %s", ErrRoleAbsent, peer)
}

// culprit is the attribution of the parent's abortAsLocked; parked holds
// the roles blocked inside the fabric.
func (rc *refCast) culprit(parked map[ids.RoleRef]bool) ids.RoleRef {
	var culprit ids.RoleRef
	unfinished := make([]ids.RoleRef, 0, len(rc.assigned))
	for _, r := range rc.assigned.Roles().Sorted() {
		if !rc.finished.Contains(r) {
			unfinished = append(unfinished, r)
		}
	}
	for _, r := range unfinished {
		if !parked[r] {
			culprit = r
			break
		}
	}
	if culprit.Name == "" && len(unfinished) > 0 {
		culprit = unfinished[0]
	}
	return culprit
}

// --- the scenario and its drive through a real Instance -------------------

type castCmdKind int

const (
	cmdFinish castCmdKind = iota
	cmdProbe
	cmdRecv
)

type castCmd struct {
	kind  castCmdKind
	peer  ids.RoleRef   // cmdRecv
	reply chan castObs  // cmdProbe, cmdRecv
	about []ids.RoleRef // cmdProbe
	names []string      // cmdProbe
	sends []ids.RoleRef // cmdProbe: roles the reference says cannot be waited on
}

// castObs is what one command observed.
type castObs struct {
	terminated, filled []bool
	sizes              []int
	sendErrs           []error
	err                error // cmdRecv
}

// eventLog is a tracer keeping the formation events of performance 1.
type eventLog struct {
	mu       sync.Mutex
	events   []castEvent
	finished map[ids.RoleRef]bool
}

func (l *eventLog) Record(e trace.Event) {
	if e.Performance != 1 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Kind {
	case trace.KindStart, trace.KindAbsent, trace.KindAbort:
		l.events = append(l.events, castEvent{e.Kind, e.Role})
	case trace.KindFinish:
		l.finished[e.Role] = true
	}
}

func (l *eventLog) sawFinish(r ids.RoleRef) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finished[r]
}

func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// parked reports whether role r of the instance's active performance is
// blocked inside the fabric.
func parked(in *Instance, r ids.RoleRef) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	p := in.active
	return p != nil && !p.done && slices.Contains(p.fabric.WaitingIDs(), p.fabric.Endpoint(rendezvous.Addr(r.String())))
}

func TestCastTableMatchesMapReference(t *testing.T) {
	started, aborted, blockedChecks := 0, 0, 0
	for seed := int64(1); seed <= 48; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, a, b := runCastScenario(t, seed)
			started += s
			aborted += a
			blockedChecks += b
		})
	}
	// The generator must actually reach what the test is for.
	t.Logf("started=%d aborted=%d blocked=%d", started, aborted, blockedChecks)
	if started < 40 || aborted < 8 || blockedChecks < 30 {
		t.Fatalf("scenarios too thin: %d performances started, %d aborted, %d blocked receivers checked", started, aborted, blockedChecks)
	}
}

func runCastScenario(t *testing.T, seed int64) (started, aborted, blockedChecks int) {
	rng := rand.New(rand.NewSource(seed))
	a, b := ids.Role("a"), ids.Role("b")
	w := func(i int) ids.RoleRef { return ids.Member("w", i) }
	o := func(i int) ids.RoleRef { return ids.Member("o", i) }
	open, immediate := rng.Intn(2) == 0, rng.Intn(2) == 0

	// One body for every role: it does what the driver tells it to.
	ctl := make(map[ids.RoleRef]chan castCmd)
	body := func(rc Ctx) error {
		if rc.Performance() != 1 {
			<-rc.Context().Done() // a later cast formed from the leftovers
			return nil
		}
		for {
			select {
			case <-rc.Context().Done():
				return nil
			case cmd := <-ctl[rc.Role()]:
				var obs castObs
				switch cmd.kind {
				case cmdFinish:
					return nil
				case cmdRecv:
					_, obs.err = rc.Recv(cmd.peer)
				case cmdProbe:
					for _, r := range cmd.about {
						obs.terminated = append(obs.terminated, rc.Terminated(r))
						obs.filled = append(obs.filled, rc.Filled(r))
					}
					for _, n := range cmd.names {
						obs.sizes = append(obs.sizes, rc.FamilySize(n))
					}
					for _, r := range cmd.sends {
						obs.sendErrs = append(obs.sendErrs, rc.Send(r, "x"))
					}
				}
				cmd.reply <- obs
			}
		}
	}
	sb := NewScript(fmt.Sprintf("cast%d", seed)).Role("a", body).Role("b", body).Family("w", 3, body)
	if open {
		sb.OpenFamily("o", body)
	}
	must := []ids.RoleRef{a, b, w(1), w(2), w(3)} // what has to be offered for a cast to form
	switch rng.Intn(4) {
	case 1:
		must = []ids.RoleRef{a, w(1)}
		sb.CriticalSet(must...)
	case 2:
		must = []ids.RoleRef{a, w(2)}
		sb.CriticalSet(a, b).CriticalSet(must...)
	case 3:
		if must = []ids.RoleRef{b}; open {
			must = []ids.RoleRef{a, o(1)}
		}
		sb.CriticalSet(must...)
	}
	if immediate {
		sb.Initiation(ImmediateInitiation)
	}
	if rng.Intn(2) == 0 {
		sb.Termination(ImmediateTermination)
	}
	def := sb.MustBuild()

	// The offers, in arrival order: the critical roles, some others, perhaps
	// a second bidder for one role and a joiner with a partner constraint.
	offered := slices.Clone(must)
	others := []ids.RoleRef{a, b, w(1), w(2), w(3)}
	if open {
		others = append(others, o(1), o(2), o(3))
	}
	for _, r := range others {
		if !slices.Contains(offered, r) && rng.Intn(2) == 0 {
			offered = append(offered, r)
		}
	}
	rng.Shuffle(len(offered), func(i, j int) { offered[i], offered[j] = offered[j], offered[i] })
	var offers []Enrollment
	for _, r := range offered {
		offers = append(offers, Enrollment{PID: ids.PID("P-" + r.String()), Role: r})
	}
	if rng.Intn(3) == 0 {
		r := offered[rng.Intn(len(offered))]
		at := rng.Intn(len(offers) + 1)
		offers = slices.Insert(offers, at, Enrollment{PID: ids.PID("Q-" + r.String()), Role: r})
	}
	if k := rng.Intn(len(offers)); rng.Intn(2) == 0 && offers[k].Role != a {
		partner := ids.PID("P-a")
		if rng.Intn(3) == 0 {
			partner = "nobody"
		}
		offers[k].With = map[ids.RoleRef]ids.PIDSet{a: ids.NewPIDSet(partner)}
	}
	for _, e := range offers {
		if ctl[e.Role] == nil {
			ctl[e.Role] = make(chan castCmd)
		}
	}
	var never ids.RoleRef // a closed role nobody offers: absent once membership closes
	for _, r := range []ids.RoleRef{b, w(1), w(2), w(3)} {
		if !slices.Contains(offered, r) {
			never = r
			break
		}
	}

	log := &eventLog{finished: make(map[ids.RoleRef]bool)}
	in := NewInstance(def, WithTracer(log))
	ref := newRefCast(def)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	var enrollers sync.WaitGroup
	defer func() {
		cancel()
		in.Close()
		enrollers.Wait()
	}()

	// send hands one command to role r's body; tell also waits for what it
	// saw.
	send := func(r ids.RoleRef, cmd castCmd) {
		t.Helper()
		select {
		case ctl[r] <- cmd:
		case <-ctx.Done():
			t.Fatalf("role %s took no command", r)
		}
	}
	tell := func(r ids.RoleRef, cmd castCmd) castObs {
		t.Helper()
		cmd.reply = make(chan castObs, 1)
		send(r, cmd)
		select {
		case obs := <-cmd.reply:
			return obs
		case <-ctx.Done():
			t.Fatalf("role %s never answered (a send the reference expected to fail blocked?)", r)
		}
		panic("unreachable")
	}
	// block has role r wait in Recv for peer; the reply arrives when the
	// fabric lets go.
	block := func(r, peer ids.RoleRef) chan castObs {
		t.Helper()
		reply := make(chan castObs, 1)
		send(r, castCmd{kind: cmdRecv, peer: peer, reply: reply})
		poll(t, fmt.Sprintf("%s parked on %s", r, peer), func() bool { return parked(in, r) })
		return reply
	}
	checkBlocked := func(reply chan castObs, peer ids.RoleRef) {
		t.Helper()
		select {
		case obs := <-reply:
			want := ref.commErr(peer)
			if obs.err == nil || obs.err.Error() != want.Error() || !errors.Is(obs.err, errors.Unwrap(want)) {
				t.Fatalf("blocked Recv(%s) = %v, reference says %v", peer, obs.err, want)
			}
			blockedChecks++
		case <-ctx.Done():
			t.Fatalf("Recv(%s) still blocked", peer)
		}
	}

	// Everything worth asking about: every closed role, the open members
	// offered or not, and references that name no role at all.
	about := []ids.RoleRef{a, b, w(1), w(2), w(3), o(1), o(2), o(3), o(9),
		ids.Role("ghost"), w(4), w(0), ids.Role("w"), ids.Member("a", 1),
		ids.Member("w", math.MaxInt), ids.Member("b", math.MaxInt)}
	names := []string{"a", "w", "o", "ghost"}
	probe := func(from ids.RoleRef) {
		t.Helper()
		cmd := castCmd{kind: cmdProbe, about: about, names: names}
		for _, r := range about {
			if ref.availability(r) != peerOK {
				cmd.sends = append(cmd.sends, r)
			}
		}
		obs := tell(from, cmd)
		for i, r := range about {
			if obs.terminated[i] != ref.terminated(r) || obs.filled[i] != ref.filled(r) {
				t.Fatalf("%s asks about %s: Terminated=%v Filled=%v, reference %v %v",
					from, r, obs.terminated[i], obs.filled[i], ref.terminated(r), ref.filled(r))
			}
		}
		for i, n := range names {
			if obs.sizes[i] != ref.familySize(n) {
				t.Fatalf("%s: FamilySize(%s) = %d, reference %d", from, n, obs.sizes[i], ref.familySize(n))
			}
		}
		for i, r := range cmd.sends {
			want := precheckErr(ref.availability(r), r)
			if got := obs.sendErrs[i]; got == nil || got.Error() != want.Error() || !errors.Is(got, errors.Unwrap(want)) {
				t.Fatalf("%s: Send(%s) = %v, reference says %v", from, r, got, want)
			}
		}
	}

	// Arrivals, one at a time, the reference in step. Under immediate
	// initiation the first member waits for a role nobody will offer, to be
	// told it is absent when membership closes.
	var absentReply chan castObs
	for k, e := range offers {
		enrollers.Add(1)
		go func() {
			defer enrollers.Done()
			_, _ = in.Enroll(ctx, e)
		}()
		poll(t, "the offer to be taken", func() bool {
			in.mu.Lock()
			defer in.mu.Unlock()
			return in.nextOffer == uint64(k+1)
		})
		ref.offer(match.Offer{ID: uint64(k + 1), PID: e.PID, Role: e.Role, With: clonePartners(e.With)})
		if immediate && ref.started && !ref.membershipClosed && absentReply == nil && never.Name != "" && ref.filled(e.Role) {
			absentReply = block(e.Role, never)
		}
		if absentReply != nil && ref.membershipClosed {
			checkBlocked(absentReply, never)
			absentReply = nil
		}
	}
	in.mu.Lock()
	perfs := in.perfCount
	in.mu.Unlock()
	if !ref.started {
		if perfs != 0 {
			t.Fatalf("a performance started; the reference finds no cast in %v", offers)
		}
		return 0, 0, blockedChecks
	}
	if perfs != 1 {
		t.Fatalf("%d performances started, reference has 1 running", perfs)
	}
	if absentReply != nil { // membership never closed: nothing to be told
		cancel()
		return 1, 0, blockedChecks
	}

	members := ref.assigned.Roles().Sorted()
	order := slices.Clone(members)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	prober := order[len(order)-1]
	probe(prober)

	// A member waits for the first role to finish, to be told it finished.
	var finishedReply chan castObs
	if len(order) >= 3 {
		finishedReply = block(order[len(order)-2], order[0])
	}
	abortAfter := -1
	if len(order) >= 3 && rng.Intn(3) == 0 {
		abortAfter = 1 + rng.Intn(len(order)-2)
	}
	for i, r := range order {
		if i == abortAfter {
			// Park every other unfinished member but the prober on a role that
			// will never send, then abort as the deadline timer would.
			parkedRoles := make(map[ids.RoleRef]bool)
			var replies []chan castObs
			for j := i; j < len(order)-1; j += 2 {
				replies = append(replies, block(order[j], prober))
				parkedRoles[order[j]] = true
			}
			want := ref.culprit(parkedRoles)
			in.mu.Lock()
			in.abortLocked(in.active, ids.RoleRef{}, "reference check")
			in.advanceLocked()
			in.unlock()
			for _, reply := range replies {
				var ae *AbortError
				if obs := <-reply; !errors.As(obs.err, &ae) || ae.Culprit != want {
					t.Fatalf("parked role unwound with %v, reference blames %s", obs.err, want)
				}
			}
			ref.events = append(ref.events, castEvent{trace.KindAbort, want})
			aborted = 1
			break
		}
		if r == prober {
			break // the last one standing; the deferred cancel releases it
		}
		send(r, castCmd{kind: cmdFinish})
		poll(t, fmt.Sprintf("%s to finish", r), func() bool { return log.sawFinish(r) })
		ref.finished.Add(r)
		if i == 0 && finishedReply != nil {
			checkBlocked(finishedReply, r)
		}
		probe(prober)
	}

	log.mu.Lock()
	got := slices.Clone(log.events)
	log.mu.Unlock()
	if !slices.Equal(got, ref.events) {
		t.Fatalf("formation events\n got %v\nwant %v", got, ref.events)
	}
	return 1, aborted, blockedChecks
}

// TestAbortCulpritMergesOpenMembersInRoleOrder is the one ordering the seeded
// scenarios rarely reach: members of an open family have no slot, and the
// culprit search must still meet them where role order puts them — here
// between the finished a and the idle w[1].
func TestAbortCulpritMergesOpenMembersInRoleOrder(t *testing.T) {
	idle := func(Ctx) error { return errors.New("the idle members play through enrollIdle") }
	def := NewScript("merge").
		Role("a", func(Ctx) error { return nil }).
		OpenFamily("o", idle).
		Family("w", 1, idle).
		CriticalSet(ids.Role("a")).
		Termination(ImmediateTermination).
		MustBuild()
	in := NewInstance(def, WithPerformanceDeadline(20*time.Millisecond))
	defer in.Close()
	ref := newRefCast(def)

	errs := make(chan error, 2)
	for k, r := range []ids.RoleRef{ids.Member("w", 1), ids.Member("o", 1), ids.Role("a")} {
		e := Enrollment{PID: ids.PID(r.String()), Role: r}
		ref.offer(match.Offer{ID: uint64(k + 1), PID: e.PID, Role: e.Role})
		if r.Name == "a" { // covers the critical set: the three form one cast
			if _, err := in.Enroll(context.Background(), e); err != nil {
				t.Fatalf("a: %v", err)
			}
			break
		}
		go func() { errs <- enrollIdle(in, e) }()
		poll(t, "the offer to be taken", func() bool { return in.PendingOffers() == k+1 })
	}
	ref.finished.Add(ids.Role("a"))
	want := ref.culprit(nil)
	if want != ids.Member("o", 1) {
		t.Fatalf("reference blames %s; the scenario is wrong", want)
	}
	for range 2 {
		var ae *AbortError
		if err := <-errs; !errors.As(err, &ae) || ae.Culprit != want {
			t.Fatalf("idle member released with %v, reference blames %s", err, want)
		}
	}
}

// abortWatch is a hand-off that passes on the assignment and the abort.
type abortWatch struct {
	settled chan struct{}
	aborted chan *AbortError
}

func (w abortWatch) Settled(Offered, error)            { w.settled <- struct{}{} }
func (w abortWatch) Aborted(_ Offered, ae *AbortError) { w.aborted <- ae }
func (abortWatch) Released()                           {}

// enrollIdle plays e's role through the hand-off with a body that idles until
// the performance is aborted under it, and returns the enrollment's error.
func enrollIdle(in *Instance, e Enrollment) error {
	w := abortWatch{make(chan struct{}, 1), make(chan *AbortError, 1)}
	o, err := in.Offer(context.Background(), e, w)
	if err != nil {
		return err
	}
	<-w.settled
	_, _, err = o.Perform(func(Ctx) error { return <-w.aborted })
	return err
}
