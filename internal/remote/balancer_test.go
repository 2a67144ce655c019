package remote

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/wire"
)

// pickEnroller builds an enroller over fake addresses — pickHost never
// dials, so the hosts don't need to exist.
func pickEnroller(b Balancer, seed int64, addrs ...string) *Enroller {
	return NewEnrollerMulti(addrs, EnrollerConfig{
		Balancer: b,
		Retry:    RetryPolicy{Seed: seed},
	})
}

func TestPickHostRotatesScanStart(t *testing.T) {
	e := pickEnroller(nil, 1, "a:1", "b:1", "c:1")
	now := time.Now()
	want := []string{"a:1", "b:1", "c:1", "a:1"}
	for attempt, w := range want {
		hs := e.pickHost(now, attempt)
		if hs == nil || hs.addr != w {
			t.Fatalf("attempt %d: picked %v, want %s (scan start must rotate)", attempt, hs, w)
		}
	}
}

func TestPickHostSkipsOpenBreakerAndProbesWhenDue(t *testing.T) {
	e := pickEnroller(nil, 1, "a:1", "b:1")
	now := time.Now()
	// Trip a's breaker (threshold defaults to 5 consecutive failures).
	a := e.hosts[0]
	for i := 0; i < DefaultFailureThreshold; i++ {
		a.brk.onFailure(now)
	}
	if st, _ := a.brk.snapshot(); st != BreakerOpen {
		t.Fatalf("breaker not open: %v", st)
	}
	// While cooling, every attempt lands on b — even attempt 0, whose
	// rotation starts at a.
	for attempt := 0; attempt < 4; attempt++ {
		if hs := e.pickHost(now, attempt); hs == nil || hs.addr != "b:1" {
			t.Fatalf("attempt %d picked %v, want b:1 (a is cooling)", attempt, hs)
		}
	}
	// Once the cooldown elapses, the due probe takes one attempt...
	later := now.Add(DefaultBreakerCooldown + time.Millisecond)
	if hs := e.pickHost(later, 0); hs == nil || hs.addr != "a:1" {
		t.Fatalf("due probe not claimed: picked %v", hs)
	}
	// ...and exactly one: the token is claimed, the next pick goes to b.
	if hs := e.pickHost(later, 0); hs == nil || hs.addr != "b:1" {
		t.Fatalf("second pick during half-open went to %v, want b:1", hs)
	}
}

func TestPickHostDemotesRecentlyShedHost(t *testing.T) {
	e := pickEnroller(nil, 1, "a:1", "b:1")
	now := time.Now()
	e.hosts[0].lastShed.Store(now.UnixNano())
	// a's breaker is still closed, but its first-hand shed demotes it below
	// b for every rotation.
	for attempt := 0; attempt < 4; attempt++ {
		if hs := e.pickHost(now, attempt); hs == nil || hs.addr != "b:1" {
			t.Fatalf("attempt %d picked %v, want b:1 (a recently shed)", attempt, hs)
		}
	}
	// After the demote window, a is preferred again on its rotations.
	later := now.Add(shedDemoteWindow + time.Millisecond)
	if hs := e.pickHost(later, 0); hs == nil || hs.addr != "a:1" {
		t.Fatalf("demotion did not expire: picked %v", hs)
	}
	// When every host shed recently, the demoted tier still serves.
	e.hosts[0].lastShed.Store(now.UnixNano())
	e.hosts[1].lastShed.Store(now.UnixNano())
	if hs := e.pickHost(now, 0); hs == nil {
		t.Fatal("all-demoted fleet must still pick a host")
	}
}

func TestRoundRobinBalancerSpreads(t *testing.T) {
	e := pickEnroller(NewRoundRobin(), 1, "a:1", "b:1", "c:1")
	now := time.Now()
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		counts[e.pickHost(now, 0).addr]++
	}
	for _, addr := range []string{"a:1", "b:1", "c:1"} {
		if counts[addr] != 10 {
			t.Fatalf("round-robin spread uneven: %v", counts)
		}
	}
}

// TestPickHostAllBreakersOpen pins the emptiest edge of the scan: with every
// breaker cooling there is nothing to pick — no panic, nil result, and the
// attempt surfaces as ErrCircuitOpen — until a cooldown elapses and exactly
// one probe token is handed out.
func TestPickHostAllBreakersOpen(t *testing.T) {
	e := pickEnroller(NewLeastLoaded(), 1, "a:1", "b:1", "c:1")
	now := time.Now()
	for _, hs := range e.hosts {
		for i := 0; i < DefaultFailureThreshold; i++ {
			hs.brk.onFailure(now)
		}
	}
	for attempt := 0; attempt < 4; attempt++ {
		if hs := e.pickHost(now, attempt); hs != nil {
			t.Fatalf("attempt %d picked %s with every breaker open", attempt, hs.addr)
		}
	}
	if err := e.noHostErr(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("noHostErr = %v, want ErrCircuitOpen", err)
	}
	later := now.Add(DefaultBreakerCooldown + time.Millisecond)
	if hs := e.pickHost(later, 0); hs == nil {
		t.Fatal("due half-open probe not claimed after cooldown")
	}
}

// TestPickHostAllLoadDigestsStale drives pickHost (not just the Balancer)
// with every host's load digest aged past DefaultStaleLoadAfter: the
// least-loaded balancer must fall back to rotation — deterministically
// picking *some* closed host — and account each fallback in
// remote_stale_load_fallbacks_total.
func TestPickHostAllLoadDigestsStale(t *testing.T) {
	e := pickEnroller(NewLeastLoaded(), 1, "a:1", "b:1", "c:1")
	now := time.Now()
	for _, hs := range e.hosts {
		hs.loadMu.Lock()
		hs.hasLoad = true
		hs.load = registry.Load{PendingOffers: 1}
		hs.loadAt = now.Add(-time.Hour)
		hs.loadMu.Unlock()
	}
	before := metrics.Get(metrics.StaleLoadFallbacks).Load()
	seen := map[string]bool{}
	for attempt := 0; attempt < 6; attempt++ {
		hs := e.pickHost(now, attempt)
		if hs == nil {
			t.Fatalf("attempt %d picked nothing with all-closed breakers", attempt)
		}
		seen[hs.addr] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all-stale fallback never rotated: %v", seen)
	}
	if got := metrics.Get(metrics.StaleLoadFallbacks).Load(); got != before+6 {
		t.Fatalf("stale fallback counter: got %d, want %d", got, before+6)
	}
}

// TestTryReserveDetachedConversation pins the reservation rule a host
// returning via RESUME depends on: a conversation detached mid-reconnect
// refuses new enrollments (they dial fresh instead of queueing behind a
// transport that may never come back), and becomes reservable again the
// instant a resumed transport reattaches.
func TestTryReserveDetachedConversation(t *testing.T) {
	mc := &muxConn{
		maxStreams: 4,
		streams:    map[uint64]*muxStream{},
		stop:       make(chan struct{}),
	}
	if mc.tryReserve() {
		t.Fatal("detached conversation accepted a reservation")
	}
	mc.c = wire.NewConn(nil) // reattached (transport identity is all that matters here)
	if !mc.tryReserve() {
		t.Fatal("reattached conversation refused a reservation")
	}
	mc.mu.Lock()
	mc.c = nil // detached again mid-scan
	mc.mu.Unlock()
	if mc.tryReserve() {
		t.Fatal("re-detached conversation accepted a reservation")
	}
	mc.mu.Lock()
	if mc.reserved != 1 {
		t.Fatalf("reserved = %d, want 1", mc.reserved)
	}
	mc.mu.Unlock()
}

func freshView(addr string, l registry.Load) HostView {
	return HostView{Addr: addr, Breaker: BreakerClosed, Load: l, HasLoad: true, LoadAge: time.Millisecond}
}

func TestLeastLoadedPicksFreshMinimum(t *testing.T) {
	b := NewLeastLoaded()
	rng := rand.New(rand.NewSource(1))
	views := []HostView{
		freshView("a:1", registry.Load{PendingOffers: 5}),
		freshView("b:1", registry.Load{PendingOffers: 1}),
		freshView("c:1", registry.Load{PendingOffers: 3}),
	}
	if i := b.Pick(views, rng); views[i].Addr != "b:1" {
		t.Fatalf("picked %s, want least-pending b:1", views[i].Addr)
	}
	// Recent sheds dominate every other signal.
	views[1].Load.ShedRecent = 1
	if i := b.Pick(views, rng); views[i].Addr != "c:1" {
		t.Fatalf("picked %s, want c:1 (b shed recently, a has more pending)", views[i].Addr)
	}
	// A stale digest is excluded while fresh ones exist.
	views[2].Stale = true
	if i := b.Pick(views, rng); views[i].Addr != "a:1" {
		t.Fatalf("picked %s, want a:1 (c stale, b shedding)", views[i].Addr)
	}
}

func TestLeastLoadedTieAndStaleFallbackRotate(t *testing.T) {
	b := NewLeastLoaded()
	rng := rand.New(rand.NewSource(1))
	equal := []HostView{
		freshView("a:1", registry.Load{Conns: 2}),
		freshView("b:1", registry.Load{Conns: 2}),
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		counts[equal[b.Pick(equal, rng)].Addr]++
	}
	if counts["a:1"] != 5 || counts["b:1"] != 5 {
		t.Fatalf("tied hosts must split traffic, got %v", counts)
	}

	before := metrics.Get(metrics.StaleLoadFallbacks).Load()
	stale := []HostView{
		{Addr: "a:1", Breaker: BreakerClosed, Stale: true},
		{Addr: "b:1", Breaker: BreakerClosed, Stale: true},
	}
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		seen[stale[b.Pick(stale, rng)].Addr] = true
	}
	if !seen["a:1"] || !seen["b:1"] {
		t.Fatalf("all-stale fallback must rotate, saw %v", seen)
	}
	if got := metrics.Get(metrics.StaleLoadFallbacks).Load(); got != before+4 {
		t.Fatalf("stale fallback counter: got %d, want %d", got, before+4)
	}
}
