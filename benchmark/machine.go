package main

import (
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// pinToOneCPU binds every thread of this process, and so every thread and
// child it starts from here on, to one processor: the highest-numbered one
// it is allowed (the lowest takes most of the machine's interrupts). The
// load generator and scriptd then take turns on that processor and never
// wake each other across two. On the virtual machine this was sized on a
// wake-up that crosses processors costs a few microseconds or a few hundred
// depending on whether the hypervisor has let the idle one halt, and with
// two processors every workload lived in that lottery: the same code ran at
// half or twice the speed from one minute to the next.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 processors
	size := unsafe.Sizeof(mask)
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := int(n)/8 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i] != 0 {
			cpu = i*64 + bits.Len64(mask[i]) - 1
		}
	}
	if cpu < 0 {
		return fmt.Errorf("sched_getaffinity: empty mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// Twice over the thread list: a thread the runtime starts during the
	// first pass is the child of one already bound or is seen by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := filepath.Glob("/proc/self/task/*")
		if err != nil || len(tasks) == 0 {
			return fmt.Errorf("/proc/self/task: no threads listed")
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(filepath.Base(t))
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&mask[0])))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
			}
		}
	}
	return nil
}

// alarm wakes a goroutine at a given instant through a timerfd the runtime
// polls with its sockets. A Go timer will not do for an open-loop schedule:
// an otherwise idle runtime parks in epoll_wait, whose timeout is whole
// milliseconds, so time.Sleep(100µs) takes 1.1 ms; a timerfd makes the same
// epoll_wait return on the kernel's high-resolution timer, within some tens
// of microseconds. And a loop that yields until the instant comes cannot
// share one processor with the work it is waiting to start.
type alarm struct {
	fd int
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0o4000
	tfdCloexec     = 0o2000000
)

func newAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor handed to os.NewFile is read through the
	// runtime's poller: Read parks the goroutine, not the thread.
	return &alarm{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (a *alarm) close() { a.f.Close() }

// waitUntil returns at t, or at once when t has passed.
func (a *alarm) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(a.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := a.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

// idler is a child process that spins at the lowest priority the kernel
// has (SCHED_IDLE) on the benchmark's processor, so that the processor does
// not go idle. It runs during the open phase, where the machine would
// otherwise halt between arrivals: a virtual processor that halts is taken
// off its core by the hypervisor, and how soon it is back when the next
// arrival's timer fires depends on the host. In a busy quarter of an hour
// on the sizing machine a fifth of the arrivals were dispatched over a
// millisecond late that way and the open latencies of ten runs spread by
// 60%. It is stopped (SIGSTOP) the rest of the time: the closed phase never
// idles for long, and there every hand-off between the load generator and
// scriptd that leaves the processor free for a microsecond would go through
// the idler — remote_buffer lost a sixth of its throughput that way.
type idler struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

const schedIdle = 5 // SCHED_IDLE

// startIdler re-executes this binary with -idle, which runs idle below, and
// stops it until resume.
func startIdler() (*idler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-idle", strconv.Itoa(os.Getpid()))
	// Stopped, it cannot see that this process has gone: the kernel tells it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start idler: %w", err)
	}
	i := &idler{cmd: cmd, exited: make(chan struct{})}
	track(i)
	i.pause()
	go func() {
		_ = cmd.Wait() // it only ever ends by being killed
		untrack(i)
		close(i.exited)
	}()
	return i, nil
}

func (i *idler) kill() { _ = syscall.Kill(-i.cmd.Process.Pid, syscall.SIGKILL) }

// pause and resume do nothing on a nil idler: the smoke test runs without.
func (i *idler) pause() {
	if i != nil {
		_ = syscall.Kill(-i.cmd.Process.Pid, syscall.SIGSTOP)
	}
}

func (i *idler) resume() {
	if i != nil {
		_ = syscall.Kill(-i.cmd.Process.Pid, syscall.SIGCONT)
	}
}

func (i *idler) stop() {
	i.kill()
	<-i.exited
}

// idle is the idler's whole life: spin at SCHED_IDLE until the process that
// started it is gone (it is normally killed long before it notices).
func idle(parent int) int {
	runtime.LockOSThread() // the policy is the thread's
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "scriptload: idler: sched_setscheduler:", errno)
		return 1
	}
	// Preemption of an idle-class task by one that wakes is prompt but, as
	// measured, not always: now and then the spinner kept the processor
	// until the next scheduler tick, 4 ms. Offering it up every few
	// microseconds as well bounds the wait by that.
	for os.Getppid() == parent {
		for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
			_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
	return 0
}
