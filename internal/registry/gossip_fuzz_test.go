package registry

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

var fuzzSecret = []byte("fleet-secret")

// offlineGossip builds a node with no socket and no loops — receive touches
// neither — announcing one endpoint, holding one learned member and one
// tombstone.
func offlineGossip(secret []byte) *Gossip {
	g := &Gossip{
		cfg:     GossipConfig{Secret: secret, EvictAfter: time.Hour, Fanout: 3},
		addr:    "127.0.0.1:9001",
		members: make(map[string]*gossipMember),
		tombs:   map[string]tombstone{"10.0.0.3:7000": {seq: 50, at: time.Now()}},
		peers:   make(map[string]time.Time),
		rng:     rand.New(rand.NewSource(1)),
	}
	g.hub = newHub(&g.mu, g.snapshotLocked)
	g.self, g.has = Endpoint{Addr: "10.0.0.1:7000", Seq: 10}, true
	g.refreshSelfLocked(time.Now())
	g.members["10.0.0.2:7000"] = &gossipMember{ep: Endpoint{Addr: "10.0.0.2:7000", Seq: 100}, heard: time.Now()}
	return g
}

// gossipView is what a datagram may change, copied out for comparison.
type gossipView struct {
	seqs  map[string]uint64 // member address → Seq
	tombs map[string]uint64
	peers int
}

func viewOf(g *Gossip) gossipView {
	v := gossipView{seqs: make(map[string]uint64), tombs: make(map[string]uint64), peers: len(g.peers)}
	for addr, m := range g.members {
		v.seqs[addr] = m.ep.Seq
	}
	for addr, t := range g.tombs {
		v.tombs[addr] = t.seq
	}
	return v
}

// FuzzGossipDatagram feeds arbitrary bytes to the receive path (open, decode,
// merge) of a node without a secret and, both as they are and under a valid
// tag, of a node with one.
func FuzzGossipDatagram(f *testing.F) {
	seedNode := offlineGossip(nil)
	digests := seedNode.packDigest([]string{"10.0.0.9:9000"}, []Endpoint{
		{Addr: "10.0.0.2:7000", Seq: 101, Scripts: []string{"slot"}, Load: Load{Conns: 2}},
		{Addr: "10.0.0.3:7000", Seq: 50}, // at the tombstone: must stay dead
		{Addr: "10.0.0.3:7000", Seq: 51}, // past it: rejoins
		{Addr: "10.0.0.1:7000", Seq: 99}, // a relay of our own record
		{Addr: "10.0.0.4:7000", Seq: 1},
	})
	digests = append(digests, seedNode.packDigest([]string{"10.0.0.9:9000"}, nil)...)
	for _, d := range digests {
		f.Add(d)
		f.Add(d[:len(d)/2])
		f.Add(offlineGossip(fuzzSecret).seal(d))
	}
	f.Add([]byte(`{"from":"","members":[{"addr":""},{"addr":"x","seq":18446744073709551615}]}`))
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, pkt []byte) {
		open, keyed := offlineGossip(nil), offlineGossip(fuzzSecret)
		checkReceive(t, open, pkt, pkt)
		checkReceive(t, keyed, keyed.seal(pkt), pkt)

		// Unsealed bytes at the keyed node: unless they happen to carry a
		// valid tag, nothing may change.
		keyed = offlineGossip(fuzzSecret)
		mac := hmac.New(sha256.New, fuzzSecret)
		if len(pkt) >= sha256.Size {
			mac.Write(pkt[sha256.Size:])
		}
		if len(pkt) < sha256.Size || !hmac.Equal(mac.Sum(nil), pkt[:sha256.Size]) {
			before := viewOf(keyed)
			keyed.receive(pkt, nil)
			if after := viewOf(keyed); !reflect.DeepEqual(before, after) {
				t.Fatalf("an unauthenticated datagram changed the view: %+v -> %+v", before, after)
			}
		}
	})
}

// checkReceive delivers pkt, whose payload (after any tag) is payload, and
// checks what merge may and may not have done with it.
func checkReceive(t *testing.T, g *Gossip, pkt, payload []byte) {
	t.Helper()
	before := viewOf(g)
	g.receive(pkt, nil)
	after := viewOf(g)

	var msg gossipMsg
	offered := make(map[string]bool)
	if json.Unmarshal(payload, &msg) == nil {
		for _, ep := range msg.Members {
			offered[ep.Addr] = true
		}
	}
	for addr, seq := range after.seqs {
		was, had := before.seqs[addr]
		switch {
		case !had && !offered[addr]:
			t.Fatalf("member %s came from nowhere", addr)
		case had && seq < was:
			t.Fatalf("member %s went back from seq %d to %d", addr, was, seq)
		}
		if tomb, dead := before.tombs[addr]; dead && seq <= tomb {
			t.Fatalf("tombstoned %s (seq %d) resurrected by seq %d", addr, tomb, seq)
		}
	}
	for addr := range before.seqs {
		if _, still := after.seqs[addr]; !still {
			t.Fatalf("a datagram removed member %s", addr)
		}
	}
	for addr, seq := range before.tombs {
		if _, alive := after.seqs[addr]; !alive && after.tombs[addr] != seq {
			t.Fatalf("tombstone of %s changed from %d to %d without a rejoin", addr, seq, after.tombs[addr])
		}
	}
}
