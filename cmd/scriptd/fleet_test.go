package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
)

// fleetHost is one scriptd child process and its scraped addresses.
type fleetHost struct {
	cmd   *exec.Cmd
	addr  string // serve address
	gaddr string // gossip address
	maddr string // metrics address
	tail  chan string
}

// startFleetHost spawns a scriptd child joined to the gossip registry.
// peers seeds its gossip node; the first host of a fleet passes none.
func startFleetHost(t *testing.T, bin string, peers []string) *fleetHost {
	t.Helper()
	args := []string{
		"-addr", "127.0.0.1:0", "-script", "star_broadcast", "-n", "3",
		"-registry", "gossip:127.0.0.1:0", "-gossip-interval", "25ms",
		"-metrics-addr", "127.0.0.1:0",
	}
	if len(peers) > 0 {
		args = append(args, "-gossip-peers", strings.Join(peers, ","))
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start scriptd: %v", err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	h := &fleetHost{cmd: cmd, tail: make(chan string, 1)}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			h.addr = a
		}
		if a, ok := strings.CutPrefix(sc.Text(), "gossip on "); ok {
			h.gaddr = a
		}
		if a, ok := strings.CutPrefix(sc.Text(), "metrics on "); ok {
			h.maddr = a
			break // metrics prints last in the startup banner
		}
	}
	if h.addr == "" || h.gaddr == "" || h.maddr == "" {
		t.Fatalf("scriptd startup banner incomplete (addr=%q gossip=%q metrics=%q, scan err %v)",
			h.addr, h.gaddr, h.maddr, sc.Err())
	}
	go func() {
		var rest []string
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		h.tail <- strings.Join(rest, "\n")
	}()
	return h
}

// scrapeMetric fetches one metric line's value from a host's /metrics page.
func scrapeMetric(t *testing.T, maddr, name string) (int64, bool) {
	t.Helper()
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("parse %s value %q: %v", name, rest, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestFleetEndToEnd is the fleet acceptance test: three scriptd processes
// discover each other over gossip, a client process discovers all three
// through a gossip-backed registry subscription and soaks them with
// round-robin EnrollBloc casts, and one host is SIGTERMed mid-soak. Every
// bloc must complete (sheds and draining rejections reroute under retry),
// the killed host must drain cleanly, and no admitted performance may
// abort anywhere in the fleet.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes; skipped with -short")
	}

	bin := buildScriptd(t)

	h1 := startFleetHost(t, bin, nil)
	h2 := startFleetHost(t, bin, []string{h1.gaddr})
	h3 := startFleetHost(t, bin, []string{h1.gaddr})

	// The client joins the gossip plane as a non-announcing member and lets
	// the registry subscription drive its host set.
	g, err := registry.NewGossip(registry.GossipConfig{
		Bind:     "127.0.0.1:0",
		Seeds:    []string{h1.gaddr},
		Interval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("client gossip: %v", err)
	}
	defer g.Close()
	enr := remote.NewEnrollerRegistry(g, remote.EnrollerConfig{
		Script:   "star_broadcast",
		Balancer: remote.NewRoundRobin(),
		Retry: remote.RetryPolicy{
			MaxAttempts: 200,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Seed:        42,
		},
	})
	defer enr.Close()

	deadline := time.Now().Add(15 * time.Second)
	for len(enr.Hosts()) != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("enroller discovered %d hosts, want 3: %v", len(enr.Hosts()), enr.Hosts())
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	const rounds, killAt = 24, 8
	for r := 0; r < rounds; r++ {
		if r == killAt {
			// Kill one host mid-soak: it withdraws its announcement, drains
			// in-flight work, and exits; the soak must not notice beyond
			// rerouted retries.
			if err := h2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatalf("SIGTERM h2: %v", err)
			}
		}
		msg := fmt.Sprintf("round-%d", r)
		members := []core.Enrollment{{
			PID:  ids.PID(fmt.Sprintf("announcer-%d", r)),
			Role: ids.Role("sender"),
			Body: func(rc core.Ctx) error {
				for i := 1; i <= 3; i++ {
					if err := rc.Send(ids.Member("recipient", i), msg); err != nil {
						return err
					}
				}
				return nil
			},
		}}
		for i := 1; i <= 3; i++ {
			i := i
			members = append(members, core.Enrollment{
				PID:  ids.PID(fmt.Sprintf("listener-%d-%d", r, i)),
				Role: ids.Member("recipient", i),
				Body: func(rc core.Ctx) error {
					v, err := rc.Recv(ids.Role("sender"))
					if err != nil {
						return err
					}
					rc.SetResult(0, v)
					return nil
				},
			})
		}
		res, err := enr.EnrollBloc(ctx, members)
		if err != nil {
			t.Fatalf("bloc %d: %v", r, err)
		}
		for i := 1; i < len(res); i++ {
			if res[i].Values[0] != msg {
				t.Fatalf("bloc %d listener %d got %v, want %q", r, i, res[i].Values[0], msg)
			}
		}
	}

	// The killed host drained cleanly: no abandoned work, clean exit.
	out := <-h2.tail
	if err := h2.cmd.Wait(); err != nil {
		t.Fatalf("killed host exited uncleanly: %v (output %q)", err, out)
	}
	if !strings.Contains(out, "drained") {
		t.Fatalf("killed host output = %q, want a drain acknowledgement", out)
	}

	// Both survivors performed work and nothing aborted anywhere.
	for i, h := range []*fleetHost{h1, h3} {
		perfs, ok := scrapeMetric(t, h.maddr, "scriptd_instance_performances")
		if !ok || perfs == 0 {
			t.Errorf("survivor %d performed %d performances (found=%v), want >0 (balancing)", i, perfs, ok)
		}
		if aborted, ok := scrapeMetric(t, h.maddr, "script_performances_aborted_total"); ok && aborted != 0 {
			t.Errorf("survivor %d aborted %d admitted performances, want 0", i, aborted)
		}
		// The survivors evict the killed host on gossip silence.
		evicted := time.Now().Add(15 * time.Second)
		for {
			members, ok := scrapeMetric(t, h.maddr, "scriptd_registry_members")
			if ok && members <= 2 {
				break
			}
			if time.Now().After(evicted) {
				t.Errorf("survivor %d still counts %d registry members after the kill", i, members)
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
}
