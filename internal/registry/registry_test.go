package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestParseStaticFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.txt")
	content := "# the fleet\n\n127.0.0.1:7101 star_broadcast,buffer\n127.0.0.1:7102\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	eps, err := ParseStaticFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 2 {
		t.Fatalf("got %d endpoints, want 2", len(eps))
	}
	if eps[0].Addr != "127.0.0.1:7101" || len(eps[0].Scripts) != 2 {
		t.Fatalf("first endpoint wrong: %+v", eps[0])
	}
	if !eps[0].Serves("buffer") || eps[0].Serves("lockmanager") {
		t.Fatalf("script filtering wrong: %+v", eps[0])
	}
	if !eps[1].Serves("lockmanager") { // bare address = wildcard
		t.Fatalf("wildcard endpoint must serve anything: %+v", eps[1])
	}

	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("addr one two\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseStaticFile(bad); err == nil {
		t.Fatal("want error for malformed line")
	}
}

func TestStaticAnnounceSubscribeSnapshot(t *testing.T) {
	s := NewStatic()
	defer s.Close()

	ch, cancel := s.Subscribe("star_broadcast")
	defer cancel()
	if eps := <-ch; len(eps) != 0 {
		t.Fatalf("initial snapshot not empty: %v", eps)
	}

	var conns int
	stop := s.Announce(Endpoint{Addr: "127.0.0.1:7101", Scripts: []string{"star_broadcast"}},
		func() Load { return Load{Conns: conns} })
	select {
	case eps := <-ch:
		if len(eps) != 1 || eps[0].Addr != "127.0.0.1:7101" {
			t.Fatalf("after announce: %v", eps)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification after announce")
	}

	// Snapshot reads the load function live.
	conns = 7
	if eps := s.Snapshot("star_broadcast"); len(eps) != 1 || eps[0].Load.Conns != 7 {
		t.Fatalf("live load not read at snapshot time: %+v", eps)
	}
	// Non-matching script is filtered.
	if eps := s.Snapshot("lockmanager"); len(eps) != 0 {
		t.Fatalf("script filter leaked: %v", eps)
	}

	stop()
	select {
	case eps := <-ch:
		if len(eps) != 0 {
			t.Fatalf("after withdraw: %v", eps)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification after withdraw")
	}
}

func TestStaticFilePollReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.txt")
	if err := os.WriteFile(path, []byte("127.0.0.1:7101\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStaticFile(path, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if eps := s.Snapshot(""); len(eps) != 1 {
		t.Fatalf("initial load: %v", eps)
	}
	if err := os.WriteFile(path, []byte("127.0.0.1:7101\n127.0.0.1:7102\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "file reload to add the member", func() bool {
		return len(s.Snapshot("")) == 2
	})
	if err := os.WriteFile(path, []byte("127.0.0.1:7102\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, "file reload to drop the member", func() bool {
		eps := s.Snapshot("")
		return len(eps) == 1 && eps[0].Addr == "127.0.0.1:7102"
	})
}

func TestStaticStaleStopKeepsNewerAnnouncement(t *testing.T) {
	s := NewStatic()
	defer s.Close()
	staleStopKeepsNewerAnnouncement(t, s)
}

func TestGossipStaleStopKeepsNewerAnnouncement(t *testing.T) {
	staleStopKeepsNewerAnnouncement(t, newTestGossip(t, nil, 60))
}

// staleStopKeepsNewerAnnouncement holds of every Registry: a stop function
// withdraws the announcement it was returned for and no other.
func staleStopKeepsNewerAnnouncement(t *testing.T, r Registry) {
	stop1 := r.Announce(Endpoint{Addr: "127.0.0.1:7501"}, nil)
	stop2 := r.Announce(Endpoint{Addr: "127.0.0.1:7501", Scripts: []string{"slot"}}, nil)
	ch, cancel := r.Subscribe("")
	defer cancel()
	<-ch // the current snapshot
	// stop1 belongs to the superseded announcement: it must not withdraw
	// the live one at the same address.
	stop1()
	if eps := r.Snapshot(""); len(eps) != 1 || len(eps[0].Scripts) != 1 {
		t.Fatalf("stale stop withdrew the live announcement: %v", eps)
	}
	select {
	case eps := <-ch:
		t.Fatalf("stale stop notified subscribers: %v", eps)
	default:
	}
	stop2()
	if eps := r.Snapshot(""); len(eps) != 0 {
		t.Fatalf("live stop failed to withdraw: %v", eps)
	}
	if eps := <-ch; len(eps) != 0 {
		t.Fatalf("subscriber snapshot after the live stop: %v", eps)
	}
	stop2() // a second call withdraws, and tells subscribers, nothing more
	stop1()
	select {
	case eps, open := <-ch:
		t.Fatalf("a repeated stop reached the subscription: %v, open=%v", eps, open)
	default:
	}
}

// newTestGossip starts a gossip node with a fast cadence for tests.
func newTestGossip(t *testing.T, seeds []string, seed int64) *Gossip {
	return newTestGossipSecret(t, seeds, seed, nil)
}

// newTestGossipSecret is newTestGossip with a shared gossip secret.
func newTestGossipSecret(t *testing.T, seeds []string, seed int64, secret []byte) *Gossip {
	t.Helper()
	g, err := NewGossip(GossipConfig{
		Bind:     "127.0.0.1:0",
		Seeds:    seeds,
		Interval: 15 * time.Millisecond,
		Fanout:   3,
		Seed:     seed,
		Secret:   secret,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestGossipConvergesAndPropagatesLoad(t *testing.T) {
	// A chain topology: n2 seeds off n1, n3 seeds off n2 — n1 and n3 must
	// learn each other transitively (peer exchange).
	n1 := newTestGossip(t, nil, 1)
	n2 := newTestGossip(t, []string{n1.Addr()}, 2)
	n3 := newTestGossip(t, []string{n2.Addr()}, 3)

	n1.Announce(Endpoint{Addr: "127.0.0.1:7101", Scripts: []string{"slot"}}, func() Load { return Load{Conns: 1} })
	n2.Announce(Endpoint{Addr: "127.0.0.1:7102", Scripts: []string{"slot"}}, func() Load { return Load{Conns: 2} })
	n3.Announce(Endpoint{Addr: "127.0.0.1:7103", Scripts: []string{"slot"}}, func() Load { return Load{Conns: 3} })

	for _, g := range []*Gossip{n1, n2, n3} {
		g := g
		waitCond(t, 10*time.Second, "membership to converge to 3", func() bool {
			return len(g.Snapshot("slot")) == 3
		})
	}
	// Load digests ride the rounds: n1 must see n3's announced load.
	waitCond(t, 10*time.Second, "load digests to propagate", func() bool {
		for _, ep := range n1.Snapshot("slot") {
			if ep.Addr == "127.0.0.1:7103" && ep.Load.Conns == 3 {
				return true
			}
		}
		return false
	})
	// Script filtering applies to gossip snapshots too.
	if eps := n1.Snapshot("other"); len(eps) != 0 {
		t.Fatalf("script filter leaked: %v", eps)
	}
}

func TestGossipEvictsSilentHost(t *testing.T) {
	n1 := newTestGossip(t, nil, 10)
	n2 := newTestGossip(t, []string{n1.Addr()}, 11)
	n3 := newTestGossip(t, []string{n1.Addr()}, 12)

	n1.Announce(Endpoint{Addr: "127.0.0.1:7201"}, nil)
	n2.Announce(Endpoint{Addr: "127.0.0.1:7202"}, nil)
	n3.Announce(Endpoint{Addr: "127.0.0.1:7203"}, nil)

	waitCond(t, 10*time.Second, "convergence before the kill", func() bool {
		return len(n1.Snapshot("")) == 3 && len(n2.Snapshot("")) == 3
	})

	ch, cancel := n1.Subscribe("")
	defer cancel()
	<-ch // current snapshot

	// Kill n3: its Seq stops advancing, so the survivors must evict it on
	// the heartbeat timeout — and it must STAY evicted (relayed stale
	// records are tombstoned, not resurrected).
	n3.Close()
	waitCond(t, 10*time.Second, "survivors to evict the silent host", func() bool {
		return len(n1.Snapshot("")) == 2 && len(n2.Snapshot("")) == 2
	})
	// The subscriber hears about the eviction. The channel coalesces to the
	// latest snapshot, and the eviction already happened (waitCond above),
	// so the pending snapshot is the post-eviction one.
	select {
	case eps := <-ch:
		if len(eps) != 2 {
			t.Fatalf("subscriber snapshot after eviction: %v", eps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never notified of the eviction")
	}
	// No flapping: the dead member must not reappear.
	time.Sleep(200 * time.Millisecond)
	if eps := n1.Snapshot(""); len(eps) != 2 {
		t.Fatalf("evicted member resurrected: %v", eps)
	}
}

func TestGossipWithdrawTombstonesSelf(t *testing.T) {
	n1 := newTestGossip(t, nil, 30)
	n2 := newTestGossip(t, []string{n1.Addr()}, 31)
	stop := n1.Announce(Endpoint{Addr: "127.0.0.1:7401"}, nil)
	waitCond(t, 10*time.Second, "n2 to learn the member", func() bool {
		return len(n2.Snapshot("")) == 1
	})

	// After the withdrawal, n2 keeps relaying the stale self-record until
	// its heartbeat eviction fires. n1 must reject those relays (its own
	// tombstone), not re-add itself to its snapshot.
	stop()
	if len(n1.Snapshot("")) != 0 {
		t.Fatalf("withdraw did not clear the local view: %v", n1.Snapshot(""))
	}
	for end := time.Now().Add(120 * time.Millisecond); time.Now().Before(end); {
		if eps := n1.Snapshot(""); len(eps) != 0 {
			t.Fatalf("withdrawn self-record resurrected by a stale relay: %v", eps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A re-announcement supersedes our own tombstone.
	n1.Announce(Endpoint{Addr: "127.0.0.1:7401"}, nil)
	waitCond(t, 10*time.Second, "re-announcement to rejoin locally", func() bool {
		return len(n1.Snapshot("")) == 1
	})
	waitCond(t, 10*time.Second, "re-announcement to propagate", func() bool {
		return len(n2.Snapshot("")) == 1
	})
}

func TestGossipPackDigestChunks(t *testing.T) {
	g := newTestGossip(t, nil, 40)
	// Enough fat records to need several datagrams.
	members := make([]Endpoint, 1200)
	for i := range members {
		members[i] = Endpoint{
			Addr:    fmt.Sprintf("10.1.2.3:%05d", i),
			Scripts: []string{strings.Repeat("s", 100)},
			Seq:     uint64(i + 1),
		}
	}
	peers := []string{"10.0.0.1:9000", "10.0.0.2:9000"}
	chunks := g.packDigest(peers, members)
	if len(chunks) < 2 {
		t.Fatalf("digest of %d fat members fit %d chunk(s); want a split", len(members), len(chunks))
	}
	seen := make(map[string]bool)
	for i, buf := range chunks {
		if len(buf) > maxGossipDatagram {
			t.Fatalf("chunk %d is %d bytes, past the %d bound", i, len(buf), maxGossipDatagram)
		}
		var msg gossipMsg
		if err := json.Unmarshal(buf, &msg); err != nil {
			t.Fatalf("chunk %d does not parse: %v", i, err)
		}
		if i == 0 && len(msg.Peers) == 0 {
			t.Fatal("first chunk must carry the peer exchange")
		}
		if i > 0 && len(msg.Peers) != 0 {
			t.Fatalf("chunk %d repeats the peer exchange", i)
		}
		for _, ep := range msg.Members {
			seen[ep.Addr] = true
		}
	}
	if len(seen) != len(members) {
		t.Fatalf("chunks cover %d members, want %d", len(seen), len(members))
	}
}

func TestGossipSharedSecret(t *testing.T) {
	secret := []byte("fleet-secret")
	n1 := newTestGossipSecret(t, nil, 50, secret)
	n2 := newTestGossipSecret(t, []string{n1.Addr()}, 51, secret)
	n1.Announce(Endpoint{Addr: "127.0.0.1:7601"}, nil)
	n2.Announce(Endpoint{Addr: "127.0.0.1:7602"}, nil)
	for _, g := range []*Gossip{n1, n2} {
		g := g
		waitCond(t, 10*time.Second, "authenticated nodes to converge", func() bool {
			return len(g.Snapshot("")) == 2
		})
	}

	// A node without the secret cannot inject membership: its unsigned
	// packets are dropped before merge.
	intruder := newTestGossip(t, []string{n1.Addr()}, 52)
	intruder.Announce(Endpoint{Addr: "127.0.0.1:7666"}, nil)
	time.Sleep(150 * time.Millisecond) // ~10 rounds of injection attempts
	for _, ep := range n1.Snapshot("") {
		if ep.Addr == "127.0.0.1:7666" {
			t.Fatal("unauthenticated gossip injected a member")
		}
	}
}

func TestGossipRestartSupersedesTombstone(t *testing.T) {
	n1 := newTestGossip(t, nil, 20)
	n2 := newTestGossip(t, []string{n1.Addr()}, 21)
	n2.Announce(Endpoint{Addr: "127.0.0.1:7301"}, nil)
	waitCond(t, 10*time.Second, "n1 to learn the member", func() bool {
		return len(n1.Snapshot("")) == 1
	})
	n2.Close()
	waitCond(t, 10*time.Second, "n1 to evict the member", func() bool {
		return len(n1.Snapshot("")) == 0
	})
	// The host restarts (new gossip node, same service addr). Its clock-
	// seeded Seq exceeds the tombstoned one, so it must rejoin promptly.
	n2b := newTestGossip(t, []string{n1.Addr()}, 22)
	n2b.Announce(Endpoint{Addr: "127.0.0.1:7301"}, nil)
	waitCond(t, 10*time.Second, "restarted member to supersede its tombstone", func() bool {
		return len(n1.Snapshot("")) == 1
	})
}
