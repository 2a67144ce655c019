package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: the scriptd
// binary, the Go build cache (run.sh points GOCACHE here) and span dumps.
// It is inside the checkout and listed in .gitignore.
const buildDir = ".bench_build"

// buildScriptd compiles cmd/scriptd from the checkout's source. After the
// first call it is a cache hit, but it stays inside setup_s: a user who
// starts the system pays it.
func buildScriptd(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "scriptd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/scriptd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/scriptd: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one scriptd process in its own process group.
type child struct {
	cmd         *exec.Cmd
	addr        string
	metricsAddr string
	exited      chan struct{} // closed once Wait has returned
	waitErr     error

	mu      sync.Mutex
	drained bool
	stderr  bytes.Buffer
}

// live holds every child process not yet reaped, so any exit path can kill
// them.
var live struct {
	sync.Mutex
	set map[interface{ kill() }]struct{}
}

func track(c interface{ kill() }) {
	live.Lock()
	defer live.Unlock()
	if live.set == nil {
		live.set = make(map[interface{ kill() }]struct{})
	}
	live.set[c] = struct{}{}
}

func untrack(c interface{ kill() }) {
	live.Lock()
	defer live.Unlock()
	delete(live.set, c)
}

func killAllChildren() {
	live.Lock()
	defer live.Unlock()
	for c := range live.set {
		c.kill()
	}
}

const spawnTimeout = 10 * time.Second

// spawnScriptd starts scriptd on port 0 with a metrics listener on port 0
// and scrapes both resolved addresses from its standard output.
func spawnScriptd(bin, script string, n int) (*child, error) {
	cmd := exec.Command(bin, "-script", script, "-n", strconv.Itoa(n),
		"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, exited: make(chan struct{})}
	cmd.Stderr = &lockedWriter{mu: &c.mu, w: &c.stderr}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start scriptd: %w", err)
	}
	track(c)

	type addrs struct{ serve, metrics string }
	ready := make(chan addrs, 1) // one send, when both addresses are known
	go func() {
		var a addrs
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "listening on "):
				a.serve = strings.TrimPrefix(line, "listening on ")
			case strings.HasPrefix(line, "metrics on "):
				a.metrics = strings.TrimPrefix(line, "metrics on ")
				ready <- a
			case line == "drained":
				c.mu.Lock()
				c.drained = true
				c.mu.Unlock()
			}
		}
		// The pipe is at EOF: every line has been seen, Wait may reap.
		c.waitErr = cmd.Wait()
		untrack(c)
		close(c.exited)
	}()

	select {
	case a := <-ready:
		c.addr, c.metricsAddr = a.serve, a.metrics
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("scriptd exited before listening: %v\n%s", c.waitErr, c.stderrText())
	case <-time.After(spawnTimeout):
		c.kill()
		<-c.exited
		return nil, fmt.Errorf("scriptd did not print its addresses within %v\n%s", spawnTimeout, c.stderrText())
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (c *child) stderrText() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stderr.String()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill ends the child's whole process group at once.
func (c *child) kill() { _ = syscall.Kill(-c.pid(), syscall.SIGKILL) }

const drainTimeout = 10 * time.Second

// drain asks scriptd to drain with SIGTERM and waits for a clean exit. A
// child that does not print "drained" and exit 0 in time is killed and
// reported: a failed drain fails the run.
func (c *child) drain() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		c.kill()
		<-c.exited
		return fmt.Errorf("signal scriptd: %w", err)
	}
	select {
	case <-c.exited:
	case <-time.After(drainTimeout):
		c.kill()
		<-c.exited
		return fmt.Errorf("scriptd did not drain within %v\n%s", drainTimeout, c.stderrText())
	}
	c.mu.Lock()
	drained := c.drained
	c.mu.Unlock()
	if c.waitErr != nil || !drained {
		return fmt.Errorf("scriptd drain failed (exit: %v, drained printed: %v)\n%s", c.waitErr, drained, c.stderrText())
	}
	return nil
}

// ---- what scriptd and the kernel already expose ----

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns user+system CPU time of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// selfCPU returns user+system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procFields reads "key: value ..." or "key value" lines of a /proc file
// into a map of the first numeric token per key.
func procFields(path string) (map[string]int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(raw), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[key] = v
		}
	}
	return out, nil
}

// peakRSSMB returns VmHWM of pid ("self" for this process) in MB.
func peakRSSMB(pid string) (float64, error) {
	f, err := procFields("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, ok := f["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("/proc/%s/status: no VmHWM", pid)
	}
	return float64(kb) / 1024, nil
}

// procCtxSwitches sums voluntary and involuntary context switches over
// every thread of pid; /proc/<pid>/status alone covers the main thread.
func procCtxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads readable", pid)
	}
	var total int64
	for _, t := range tasks {
		f, err := procFields(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		total += f["voluntary_ctxt_switches"] + f["nonvoluntary_ctxt_switches"]
	}
	return total, nil
}

// hostCounters is one reading of everything the scriptd child exposes.
// A group that could not be read leaves its ok flag false, and the metrics
// built on it are reported absent, not zero.
type hostCounters struct {
	cpu   time.Duration
	cpuOK bool

	syscr, syscw, rchar, wchar int64
	ioOK                       bool

	ctxsw   int64
	ctxswOK bool

	mallocs, pauseNs uint64
	varsOK           bool

	prom   map[string]float64 // /metrics, name → value
	promOK bool
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrapeProm reads scriptd's /metrics (Prometheus text format).
func scrapeProm(addr string) (map[string]float64, error) {
	raw, err := httpGet("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

func (c *child) counters() hostCounters {
	var h hostCounters
	pid := c.pid()
	if cpu, err := procCPU(pid); err == nil {
		h.cpu, h.cpuOK = cpu, true
	}
	if f, err := procFields(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		h.syscr, h.syscw, h.rchar, h.wchar = f["syscr"], f["syscw"], f["rchar"], f["wchar"]
		h.ioOK = true
	}
	if n, err := procCtxSwitches(pid); err == nil {
		h.ctxsw, h.ctxswOK = n, true
	}
	if raw, err := httpGet("http://" + c.metricsAddr + "/debug/vars"); err == nil {
		var vars struct {
			Memstats struct {
				Mallocs      uint64
				PauseTotalNs uint64
			} `json:"memstats"`
		}
		if json.Unmarshal(raw, &vars) == nil {
			h.mallocs, h.pauseNs, h.varsOK = vars.Memstats.Mallocs, vars.Memstats.PauseTotalNs, true
		}
	}
	if prom, err := scrapeProm(c.metricsAddr); err == nil {
		h.prom, h.promOK = prom, true
	}
	return h
}
