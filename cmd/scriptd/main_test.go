package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	got := strings.Fields(buf.String())
	want := patterns.Names()
	if len(got) != len(want) {
		t.Fatalf("-list printed %d names, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("-list[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestUnknownScript(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-script", "no_such_pattern"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "no_such_pattern") {
		t.Fatalf("run -script no_such_pattern = %v, want unknown-script error", err)
	}
}

// buildScriptd builds the daemon into the test's temporary directory and
// returns the binary's path.
func buildScriptd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "scriptd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build scriptd: %v", err)
	}
	return bin
}

// TestEndToEnd is the multi-process acceptance test: a scriptd child
// process serves the quickstart broadcast script, and this process plays
// all four quickstart parties over loopback TCP via remote.Enroller —
// three listeners enrolling for two rounds and an announcer broadcasting
// "hello" then "world". A final SIGINT must drain the daemon cleanly.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process; skipped with -short")
	}

	bin := buildScriptd(t)

	daemon := exec.Command(bin, "-addr", "127.0.0.1:0", "-script", "star_broadcast", "-n", "3",
		"-metrics-addr", "127.0.0.1:0", "-trace-sample", "1", "-trace-seed", "7")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatalf("StdoutPipe: %v", err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start scriptd: %v", err)
	}
	defer daemon.Process.Kill()

	// Scrape the resolved listen and metrics addresses from the daemon's
	// stdout ("metrics on" prints after "listening on"), then keep reading so
	// the final drain lines are captured too.
	sc := bufio.NewScanner(stdout)
	addr, maddr := "", ""
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
			addr = a
		}
		if a, ok := strings.CutPrefix(sc.Text(), "metrics on "); ok {
			maddr = a
			break
		}
	}
	if addr == "" || maddr == "" {
		t.Fatalf("scriptd exited without printing its addresses (scan err %v)", sc.Err())
	}
	tail := make(chan string, 1)
	go func() {
		var rest []string
		for sc.Scan() {
			rest = append(rest, sc.Text())
		}
		tail <- strings.Join(rest, "\n")
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
	defer enr.Close()

	// The quickstart logic, with every party in this process and the script
	// machinery in the daemon. Values[0] of each listener's Result must match
	// what the announcer sent in that performance.
	var mu sync.Mutex
	byPerf := map[int][]any{} // performance -> values seen by listeners
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 1; i <= 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; round <= 2; round++ {
				res, err := enr.Enroll(ctx, core.Enrollment{
					PID:  ids.PID(fmt.Sprintf("listener-%d", i)),
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
				if err != nil {
					errs <- fmt.Errorf("listener-%d round %d: %w", i, round, err)
					return
				}
				mu.Lock()
				byPerf[res.Performance] = append(byPerf[res.Performance], res.Values[0])
				mu.Unlock()
			}
		}()
	}
	for _, msg := range []string{"hello", "world"} {
		msg := msg
		if _, err := enr.Enroll(ctx, core.Enrollment{
			PID:  "announcer",
			Role: ids.Role("sender"),
			Body: func(rc core.Ctx) error {
				for i := 1; i <= 3; i++ {
					if err := rc.Send(ids.Member("recipient", i), msg); err != nil {
						return err
					}
				}
				return nil
			},
		}); err != nil {
			t.Fatalf("announcer %q: %v", msg, err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if len(byPerf) != 2 {
		t.Fatalf("listeners saw %d performances, want 2: %v", len(byPerf), byPerf)
	}
	seen := map[any]bool{}
	for perf, vals := range byPerf {
		if len(vals) != 3 {
			t.Errorf("performance %d delivered to %d listeners, want 3", perf, len(vals))
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Errorf("performance %d mixed broadcasts: %v", perf, vals)
			}
		}
		seen[vals[0]] = true
	}
	if !seen["hello"] || !seen["world"] {
		t.Errorf("broadcast values = %v, want hello and world", byPerf)
	}

	// The metrics endpoint must be live and reflect the work just done: two
	// completed performances and at least one served connection.
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{
		"script_performances_completed_total 2",
		"scriptd_host_conns",
		"trace_sampled_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// The profiles ride the metrics listener and nothing else: the daemon's
	// other port speaks SCRW, not HTTP.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get("http://" + maddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), "goroutine") {
			t.Errorf("GET %s on the metrics listener: %s\n%.200s", path, resp.Status, page)
		}
	}
	probe := http.Client{Timeout: 2 * time.Second}
	if resp, err := probe.Get("http://" + addr + "/debug/pprof/"); err == nil {
		resp.Body.Close()
		t.Errorf("the serve address answered GET /debug/pprof/ with %s", resp.Status)
	}

	// -trace-sample keeps the tail of the sampled events for /debug/trace, in
	// the form tracecheck reads. The events reach the tail through the async
	// tracer's drainer, so the last of them may be a moment behind the
	// enrollments' return.
	var started map[int]bool
	for deadline := time.Now().Add(5 * time.Second); len(started) < 2 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + maddr + "/debug/trace")
		if err != nil {
			t.Fatalf("GET /debug/trace: %v", err)
		}
		events, err := trace.ReadJSON(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/trace (status %s) does not parse as a trace: %v", resp.Status, err)
		}
		started = map[int]bool{}
		for _, e := range events {
			if e.Kind == trace.KindPerfStart && e.TraceID != 0 {
				started[e.Performance] = true
			}
		}
	}
	if !started[1] || !started[2] {
		t.Errorf("/debug/trace shows sampled starts of performances %v, want 1 and 2", started)
	}

	// Graceful shutdown: SIGINT → drain → clean exit. The pipe must be read
	// to EOF before Wait, which closes it.
	if err := daemon.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("SIGINT: %v", err)
	}
	out := <-tail
	if err := daemon.Wait(); err != nil {
		t.Fatalf("scriptd exited uncleanly: %v", err)
	}
	if !strings.Contains(out, "drained") {
		t.Errorf("daemon output after startup = %q, want a drain acknowledgement", out)
	}
}

// TestPprofOnlyWithTheMetricsListener: the profiles are mounted on the mux
// -metrics-addr serves — index, a named profile and the command line. That
// mux's listener is the daemon's only HTTP listener: TestEndToEnd checks that
// the serve address does not answer, and a daemon started without the flag
// prints "listening on" and never "metrics on".
func TestPprofOnlyWithTheMetricsListener(t *testing.T) {
	def, err := patterns.ByName("star_broadcast", 2)
	if err != nil {
		t.Fatal(err)
	}
	in := core.NewInstance(def)
	defer in.Close()
	srv := httptest.NewServer(metricsMux(remote.NewHost(in, remote.HostConfig{}), in, nil, def.Name(), nil))
	defer srv.Close()
	for path, want := range map[string]string{
		"/debug/pprof/":                  "heap",
		"/debug/pprof/goroutine?debug=1": "goroutine profile",
		"/debug/pprof/cmdline":           os.Args[0],
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		page, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(page), want) {
			t.Errorf("GET %s: %s, want 200 and %q in:\n%.300s", path, resp.Status, want, page)
		}
	}

	if testing.Short() {
		return // the rest spawns a child process
	}
	bin := buildScriptd(t)
	daemon := exec.Command(bin, "-script", "star_broadcast", "-n", "2")
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatalf("start scriptd: %v", err)
	}
	defer daemon.Process.Kill()
	var lines []string
	for sc := bufio.NewScanner(stdout); sc.Scan(); {
		lines = append(lines, sc.Text())
		addr, ok := strings.CutPrefix(sc.Text(), "listening on ")
		if !ok {
			continue
		}
		// An offer the host answers, if only to let it time out, was served:
		// start-up is over, the metrics line would be out, and the signal
		// handler — installed before the accept loop — is in place.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		enr := remote.NewEnroller(addr, remote.EnrollerConfig{Script: "star_broadcast"})
		_, err := enr.Enroll(ctx, core.Enrollment{PID: "probe", Role: ids.Role("sender"), Body: func(core.Ctx) error { return nil }})
		cancel()
		enr.Close()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("probe enrollment: %v, want its deadline", err)
		}
		if err := daemon.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
	}
	if out := strings.Join(lines, "\n"); !strings.Contains(out, "drained") || strings.Contains(out, "metrics on") {
		t.Fatalf("a daemon without -metrics-addr printed:\n%s", out)
	}
}
