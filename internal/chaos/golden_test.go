package chaos

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// goldenConfigs are the two configurations whose decision streams
// testdata/decisions.golden pins: every class armed, and a mix of armed,
// disabled (zero probability) and magnitude-less classes, which must consume
// nothing of the seeded stream.
var goldenConfigs = []Config{
	{
		Seed:     20260806,
		OpDelayP: 0.5, OpDelayMax: time.Millisecond,
		WakeDelayP: 0.4, WakeDelayMax: 2 * time.Millisecond,
		CancelP: 0.3, CancelAfterMax: 500 * time.Microsecond,
		FastDelayP: 0.5, FastDelayMax: 100 * time.Microsecond,
		FastEvictP: 0.5,
		NetDelayP:  0.6, NetDelayMax: 3 * time.Millisecond,
		NetDropP:  0.2,
		NetCutP:   0.3,
		NetStallP: 0.4, NetStallMax: 40 * time.Millisecond,
		OverloadP:    0.5,
		GossipDropP:  0.3,
		GossipDelayP: 0.5, GossipDelayMax: 10 * time.Millisecond,
		GossipDupP:   0.2,
		GossipStaleP: 0.7,
	},
	{
		Seed:     7,
		OpDelayP: 0.05, OpDelayMax: 250 * time.Microsecond,
		WakeDelayP: 1, WakeDelayMax: 0, // no magnitude: draws nothing
		CancelP: 0.9, CancelAfterMax: time.Second,
		FastEvictP: 1,
		NetDelayP:  0.5, NetDelayMax: 1,
		NetCutP:      0.01,
		OverloadP:    0.25,
		GossipDelayP: 0.5, GossipDelayMax: time.Millisecond,
		GossipStaleP: 0.5,
	},
}

// goldenStream consults j 256 times, walking the fourteen fault methods in an
// order that keeps changing which class follows which, and renders every
// decision and the final counters one per line.
func goldenStream(j *Injector) []string {
	b2d := func(f func() bool) func() time.Duration {
		return func() time.Duration {
			if f() {
				return 1
			}
			return 0
		}
	}
	methods := []struct {
		name string
		call func() time.Duration
	}{
		{"OpDelay", j.OpDelay}, {"WakeDelay", j.WakeDelay}, {"CancelAfter", j.CancelAfter},
		{"FastDelay", j.FastDelay}, {"FastEvict", b2d(j.FastEvict)},
		{"FrameDelay", j.FrameDelay}, {"DropConn", b2d(j.DropConn)}, {"CutConn", b2d(j.CutConn)},
		{"StallHeartbeat", j.StallHeartbeat}, {"Overload", b2d(j.Overload)},
		{"DropGossip", b2d(j.DropGossip)}, {"DelayGossip", j.DelayGossip},
		{"DupGossip", b2d(j.DupGossip)}, {"StaleLoad", b2d(j.StaleLoad)},
	}
	var out []string
	for i := 0; i < 256; i++ {
		m := methods[(i*5+i/len(methods))%len(methods)]
		out = append(out, fmt.Sprintf("%d %s %d", i, m.name, m.call()))
	}
	op, wake, cancel, decisions := j.Stats()
	fastDelays, fastEvicts := j.FastStats()
	netDelays, netDrops, netStalls := j.NetStats()
	gDrops, gDelays, gDups, gStales := j.GossipStats()
	return append(out, fmt.Sprintf("counters op=%d wake=%d cancel=%d decisions=%d fast=%d/%d net=%d/%d/%d cuts=%d overloads=%d gossip=%d/%d/%d/%d",
		op, wake, cancel, decisions, fastDelays, fastEvicts, netDelays, netDrops, netStalls,
		j.NetCutCount(), j.OverloadCount(), gDrops, gDelays, gDups, gStales))
}

// TestDecisionStreamGolden pins the seeded decision stream to what it was
// when the file was recorded (at the parent of PR 26): a failing soak seed reproduces
// its faults only while a Config keeps meaning the same sequence of draws.
func TestDecisionStreamGolden(t *testing.T) {
	var got []string
	for i, cfg := range goldenConfigs {
		got = append(got, fmt.Sprintf("config %d", i))
		got = append(got, goldenStream(New(cfg))...)
	}
	raw, err := os.ReadFile("testdata/decisions.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Fatalf("stream has %d lines, golden %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, golden %q", i+1, got[i], want[i])
		}
	}
}
