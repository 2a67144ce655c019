package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/match"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/rendezvous"
	"github.com/scriptabs/goscript/internal/wire"
)

// The functions here time single layers from outside, by calling their
// public functions in a loop with the shapes the workloads give them. They
// depend on no workload, so every traced run reports them.

// p50PerCall runs fn in batches for about d and returns the median batch's
// time per call, in nanoseconds.
func p50PerCall(d time.Duration, batch int, fn func()) float64 {
	var per []float64
	for end := time.Now().Add(d); len(per) < 3 || time.Now().Before(end); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// allocsPerCall counts heap allocations per call of fn.
func allocsPerCall(n int, fn func()) float64 {
	var a, b runtime.MemStats
	fn() // first call may size pooled buffers
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// starProblem is what the matcher sees when a star broadcast of n
// recipients can start: n resident offers, then the sender's.
func starProblem(n int) match.Problem {
	roles := ids.NewRoleSet(ids.Role(patterns.RoleSender))
	var offers []match.Offer
	for i, r := range ids.FamilyMembers(patterns.RoleRecipient, n) {
		roles.Add(r)
		offers = append(offers, match.Offer{ID: uint64(i + 1), PID: workerPID("R", i+1), Role: r})
	}
	offers = append(offers, match.Offer{ID: uint64(n + 1), PID: "T0", Role: ids.Role(patterns.RoleSender)})
	return match.Problem{Roles: roles, Offers: offers, Fairness: match.FIFO}
}

// lockProblem is the lock manager's matching problem for a reader-only
// cast: k managers and a reader pending, two critical sets.
func lockProblem(k int) match.Problem {
	managers := ids.FamilyMembers(patterns.RoleManager, k)
	reader, writer := ids.Role(patterns.RoleReader), ids.Role(patterns.RoleWriter)
	roles := ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), reader, writer)...)
	var offers []match.Offer
	for i, r := range managers {
		offers = append(offers, match.Offer{ID: uint64(i + 1), PID: workerPID("M", i+1), Role: r})
	}
	offers = append(offers, match.Offer{ID: uint64(k + 1), PID: "C0", Role: reader})
	return match.Problem{
		Roles: roles,
		CriticalSets: []ids.RoleSet{
			ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), reader)...),
			ids.NewRoleSet(append(append([]ids.RoleRef{}, managers...), writer)...),
		},
		Offers:   offers,
		Fairness: match.FIFO,
	}
}

func measureMatch(d time.Duration, m map[string]float64) error {
	star, lock := starProblem(24), lockProblem(3)
	if asg, ok := match.Find(star); !ok || len(asg) != 25 {
		return fmt.Errorf("match.Find(star25) filled %d roles, want 25", len(asg))
	}
	if asg, ok := match.Find(lock); !ok || len(asg) != 4 {
		return fmt.Errorf("match.Find(lock) filled %d roles, want 4", len(asg))
	}
	m["match.find_star25_us"] = p50PerCall(d, 20, func() { match.Find(star) }) / 1e3
	m["match.find_lock_us"] = p50PerCall(d, 100, func() { match.Find(lock) }) / 1e3
	m["match.find_allocs"] = allocsPerCall(200, func() { match.Find(star) })
	return nil
}

// measureFabric times the rendezvous fabric alone: a directed pair on the
// fast lane, a 24-way Scatter, and a 3-branch Do, which always takes the
// locked slow lane.
func measureFabric(d time.Duration, m map[string]float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	defer wg.Wait()
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	// Directed pair: a peer that always sends, the timed side receives.
	pair := rendezvous.New()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pair.Send(ctx, "A", "B", "t", 1) == nil {
		}
	}()
	m["rendezvous.pair_fast_ns"] = p50PerCall(d, 200, func() {
		if _, err := pair.Recv(ctx, "B", "A", "t"); err != nil {
			fail(err)
		}
	})

	// Scatter to 24 parked receivers.
	const n = 24
	sc := rendezvous.New()
	targets := make([]rendezvous.Addr, n)
	for i := range targets {
		targets[i] = rendezvous.Addr(fmt.Sprintf("R%d", i+1))
		wg.Add(1)
		go func(me rendezvous.Addr) {
			defer wg.Done()
			for {
				if _, err := sc.Recv(ctx, me, "S", ""); err != nil {
					return
				}
			}
		}(targets[i])
	}
	vals := []any{1}
	m["rendezvous.scatter24_us"] = p50PerCall(d, 20, func() {
		if err := sc.Scatter(ctx, "S", "", targets, vals); err != nil {
			fail(err)
		}
	}) / 1e3

	// Three-branch guarded receive, fed by one sender.
	sel := rendezvous.New()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sel.Send(ctx, "S1", "P", "t", 1) == nil {
		}
	}()
	branches := []rendezvous.Branch{
		{Dir: rendezvous.DirRecv, Peer: "S1", Tag: "t"},
		{Dir: rendezvous.DirRecv, Peer: "S2", Tag: "t"},
		{Dir: rendezvous.DirRecv, Peer: "S3", Tag: "t"},
	}
	m["rendezvous.select3_slow_ns"] = p50PerCall(d, 200, func() {
		if _, err := sel.Do(ctx, "P", branches); err != nil {
			fail(err)
		}
	})

	cancel()
	pair.Close()
	sc.Close()
	sel.Close()
	return firstErr
}

// measureCodec times the payload codec on the frames the workloads send
// most: the 24-target SEND-ALL of a star broadcast and the SEND/OP-RESULT
// pair of one lock-step op.
func measureCodec(d time.Duration, m map[string]float64) error {
	tos := make([]string, 24)
	for i := range tos {
		tos[i] = wire.EncodeRoleRef(ids.Member(patterns.RoleRecipient, i+1))
	}
	sendAll := &wire.SendAll{Tos: tos, Val: 123456789}
	buf := make([]byte, 0, 1024)
	frame, err := wire.AppendPayload(buf, 2, wire.MsgSendAll, 7, 3, sendAll)
	if err != nil {
		return err
	}
	if _, _, got, err := wire.ParsePayload(2, wire.MsgSendAll, frame); err != nil {
		return err
	} else if sa, ok := got.(*wire.SendAll); !ok || len(sa.Tos) != 24 || sa.Val != 123456789 {
		return fmt.Errorf("SEND-ALL did not survive the v2 codec: %#v", got)
	}
	frame = append([]byte(nil), frame...)
	m["wire.frame_bytes_sendall24"] = float64(len(frame))
	m["wire.encode_sendall24_ns"] = p50PerCall(d, 200, func() {
		_, _ = wire.AppendPayload(buf[:0], 2, wire.MsgSendAll, 7, 3, sendAll)
	})
	m["wire.decode_sendall24_ns"] = p50PerCall(d, 200, func() {
		_, _, _, _ = wire.ParsePayload(2, wire.MsgSendAll, frame)
	})

	send := &wire.Send{To: "buffer", Tag: "item", Val: 123456789}
	result := &wire.OpResult{}
	roundTrip := func(ver int) func() {
		var stream, seq uint64
		if ver >= 2 {
			stream, seq = 7, 3
		}
		return func() {
			b, _ := wire.AppendPayload(buf[:0], ver, wire.MsgSend, stream, seq, send)
			_, _, _, _ = wire.ParsePayload(ver, wire.MsgSend, b)
			b, _ = wire.AppendPayload(buf[:0], ver, wire.MsgOpResult, stream, seq, result)
			_, _, _, _ = wire.ParsePayload(ver, wire.MsgOpResult, b)
		}
	}
	m["wire.codec_roundtrip_v2_ns"] = p50PerCall(d, 200, roundTrip(2))
	m["wire.codec_roundtrip_v1_ns"] = p50PerCall(d, 50, roundTrip(1))
	m["wire.codec_allocs_v2"] = allocsPerCall(1000, roundTrip(2))
	return nil
}

// measureConn times one SEND → OP-RESULT exchange between two wire.Conn
// over loopback TCP with no host logic behind it: framing, the flusher,
// two write and two read syscalls, and the wake-ups between them.
func measureConn(d time.Duration, m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	served := make(chan error, 1) // the echo side's one result
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		c := wire.NewConn(nc)
		c.SetVersion(2)
		defer c.Close()
		for {
			_, stream, seq, _, err := c.ReadFrame()
			if err != nil {
				served <- nil // the client closed: done
				return
			}
			if err := c.WriteFrame(wire.MsgOpResult, stream, seq, &wire.OpResult{}); err != nil {
				served <- err
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	c := wire.NewConn(nc)
	c.SetVersion(2)
	send := &wire.Send{To: "buffer", Tag: "item", Val: 123456789}
	var trips []float64
	var seq uint64
	for end := time.Now().Add(d); len(trips) < 20 || time.Now().Before(end); {
		seq++
		t0 := time.Now()
		if err := c.WriteFrame(wire.MsgSend, 1, seq, send); err != nil {
			c.Close()
			return err
		}
		if _, _, got, _, err := c.ReadFrame(); err != nil || got != seq {
			c.Close()
			return fmt.Errorf("conn echo: seq %d, err %v", got, err)
		}
		trips = append(trips, float64(time.Since(t0)))
	}
	c.Close()
	if err := <-served; err != nil {
		return err
	}
	sort.Float64s(trips)
	m["wire.conn_roundtrip_us"] = trips[len(trips)/2] / 1e3
	return nil
}

// measureDial times connection set-up against the live scriptd: TCP
// connect plus the SCRW handshake, as remote.Enroller performs it.
func measureDial(addr, script string, n int) (float64, error) {
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, err
		}
		c := wire.NewConn(nc)
		_, err = wire.ClientHandshakeV(c, script, wire.MaxVersion)
		took = append(took, ms(time.Since(t0)))
		c.Close()
		if err != nil {
			return 0, fmt.Errorf("handshake: %w", err)
		}
	}
	return median(took), nil
}

// microbenchmarks is how many timed loops measureLayers runs; a traced
// run's layer budget is divided evenly among them.
const microbenchmarks = 10

// measureLayers runs the timed loops, a burst of the reference on either
// side of each group, and states the times at nominal speed.
func measureLayers(budget time.Duration, ref *reference, m map[string]float64) error {
	d := budget / microbenchmarks
	speed := ref.speed()
	for _, f := range []func(time.Duration, map[string]float64) error{
		measureMatch, measureFabric, measureCodec, measureConn,
	} {
		got := make(map[string]float64)
		if err := f(d, got); err != nil {
			return err
		}
		next := ref.speed()
		for name, v := range got {
			if strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "_us") {
				v *= (speed + next) / 2
			}
			m[name] = v
		}
		speed = next
	}
	return nil
}
