package rendezvous

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
)

// --- differential reuse: a fabric that went through Reset behaves as a new one

// A step of an op script. Scripts are driven one step at a time — the driver
// goes on only once the step's op has returned or is pending in the fabric —
// so the fabric's state after each step, and with it which ops commit with
// which and which fail how, is a function of the script alone.
type step struct {
	kind     string   // "op", "terminate", "absent", "withdraw", "abort"
	addr     Addr     // the op's owner; the address to terminate or withdraw
	branches []Branch // op
	answer   int      // op: if >= 0, picks a waiting op to post the counterpart of
	live     []Addr   // absent: the addresses TerminateAbsent is told are live
}

var (
	scriptAddrs = []Addr{"a", "b", "c", "d", "e", "f", "g", "h"}
	scriptTags  = []Tag{"x", "x", "x", "y"}
	errScript   = errors.New("script abort")
)

// genScript draws n steps: sends, receives, 2–4-branch alternatives,
// Terminate, TerminateAbsent, context withdrawals and, if asked, one Abort
// two thirds of the way through.
func genScript(rng *rand.Rand, n int, abort bool) []step {
	branch := func(owner Addr, val int) Branch {
		br := Branch{Dir: Dir(1 + rng.Intn(2)), Peer: owner, Tag: scriptTags[rng.Intn(len(scriptTags))]}
		for br.Peer == owner {
			br.Peer = scriptAddrs[rng.Intn(len(scriptAddrs))]
		}
		if br.Dir == DirSend {
			br.Val = val
		} else if p := rng.Intn(10); p == 0 {
			br.AnyPeer = true
		} else if p == 1 {
			br.AnyTag = true
		}
		return br
	}
	script := make([]step, n)
	for i := range script {
		owner := scriptAddrs[rng.Intn(len(scriptAddrs))]
		switch p := rng.Intn(100); {
		case abort && i == 2*n/3:
			script[i] = step{kind: "abort"}
		case p < 85:
			brs := make([]Branch, 1)
			if p >= 50 {
				brs = make([]Branch, 2+rng.Intn(3))
			}
			for j := range brs {
				brs[j] = branch(owner, 10*i+j)
			}
			script[i] = step{kind: "op", addr: owner, branches: brs, answer: rng.Intn(200) - 100}
		case p < 88:
			script[i] = step{kind: "terminate", addr: owner}
		case p < 91:
			st := step{kind: "absent"}
			for _, a := range scriptAddrs {
				if rng.Intn(8) != 0 {
					st.live = append(st.live, a)
				}
			}
			script[i] = st
		default:
			script[i] = step{kind: "withdraw", addr: owner}
		}
	}
	return script
}

// runScript drives script against f, closes f, and returns one line per
// step: an op's outcome or error, or what the step did.
func runScript(t *testing.T, f *Fabric, script []step) []string {
	t.Helper()
	type flight struct {
		branches []Branch
		cancel   context.CancelFunc
		done     chan struct{}
	}
	log := make([]string, len(script))
	latest := make(map[Addr]*flight) // each owner's most recent op
	var flights []*flight
	await := func(what string, cond func() bool) {
		t.Helper()
		for spins, deadline := 0, time.Now().Add(10*time.Second); !cond(); spins++ {
			if spins < 100 {
				runtime.Gosched()
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	isDone := func(fl *flight) bool {
		select {
		case <-fl.done:
			return true
		default:
			return false
		}
	}
	withdraw := func(a Addr) bool {
		fl := latest[a]
		if fl == nil || !f.Waiting(a) {
			return false
		}
		fl.cancel()
		await("the withdrawn op", func() bool { return isDone(fl) })
		return true
	}
	for i, st := range script {
		switch st.kind {
		case "op":
			owner, branches := st.addr, st.branches
			// Half the ops answer one that is waiting: the counterpart of one
			// of its branches goes first, posted by the role that branch names.
			if waiting := f.WaitingSnapshot(); st.answer >= 0 && len(waiting) > 0 {
				w := waiting[st.answer%len(waiting)]
				if br := latest[w].branches[st.answer%len(latest[w].branches)]; !br.AnyPeer {
					owner = br.Peer
					branches = []Branch{{Dir: DirSend + DirRecv - br.Dir, Peer: w, Tag: br.Tag, Val: 10*i + 9}}
					for _, b := range st.branches[1:] {
						if b.Peer != owner {
							branches = append(branches, b)
						}
					}
				}
			}
			withdraw(owner) // an owner has one op in the fabric at a time
			ctx, cancel := context.WithCancel(context.Background())
			fl := &flight{branches: branches, cancel: cancel, done: make(chan struct{})}
			latest[owner] = fl
			flights = append(flights, fl)
			go func() {
				defer close(fl.done)
				out, err := f.Do(ctx, owner, branches)
				log[i] = fmt.Sprintf("%s %+v: %+v, %v", owner, branches, out, err)
			}()
			await("the op to return or pend", func() bool { return isDone(fl) || f.Waiting(owner) })
		case "terminate":
			f.Terminate(st.addr)
			log[i] = "terminated " + string(st.addr)
		case "absent":
			f.TerminateAbsent(func(a Addr) bool { return slices.Contains(st.live, a) })
			log[i] = fmt.Sprint("absent but ", st.live)
		case "withdraw":
			log[i] = fmt.Sprint("withdrew ", st.addr, " ", withdraw(st.addr))
		case "abort":
			f.Abort(errScript)
			log[i] = "aborted"
		}
	}
	f.Close()
	for _, fl := range flights {
		await("every op to return", func() bool { return isDone(fl) })
		fl.cancel()
	}
	if n := f.PendingCount(); n != 0 {
		t.Fatalf("%d ops pending after Close", n)
	}
	return log
}

// The same seeded scripts run against a fresh fabric each and against one
// fabric reused through Reset: every op must commit with the same partner,
// value and branch, or fail with the same error, and after every Reset the
// reused fabric must hold nothing of the scope before.
func TestResetReuseMatchesFreshFabric(t *testing.T) {
	const rounds, steps = 24, 80
	reused := New()
	for r := 0; r < rounds; r++ {
		script := genScript(rand.New(rand.NewSource(int64(1000+r))), steps, r%6 == 5)
		want := runScript(t, New(), script)
		got := runScript(t, reused, script)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d step %d (%+v):\n fresh:  %s\n reused: %s", r, i, script[i], want[i], got[i])
			}
		}
		reused.Reset()
		if err := reused.checkQuiescent(); err != nil {
			t.Fatalf("round %d: state survived Reset: %v", r, err)
		}
	}
}

// Two addresses share a hot slot and one of them is terminated: the slot is
// raised for good, and the other address is kept off the fast lane for the
// rest of the scope. Reset zeroes only the slots it can name, so it must
// name this one — the next scope commits on the fast lane again.
func TestResetClearsSharedHotSlot(t *testing.T) {
	dead, live := Addr("dead"), Addr("")
	for i := 0; live == ""; i++ {
		if a := Addr(fmt.Sprintf("live%d", i)); hotIndex(a) == hotIndex(dead) {
			live = a
		}
	}
	f := New()
	ctx := ctxT(t)
	pair := func(v int) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f.Send(ctx, live, "peer", "t", v) }()
		if got, err := f.Recv(ctx, "peer", live, "t"); err != nil || got != v {
			t.Fatalf("Recv = %v, %v, want %d", got, err, v)
		}
		if err := <-done; err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	f.Terminate(dead)
	pair(1)
	if n := f.FastCommits(); n != 0 {
		t.Fatalf("%d fast commits by an address whose hot slot a terminated one shares", n)
	}
	f.Close()
	f.Reset()
	if err := f.checkQuiescent(); err != nil {
		t.Fatalf("state survived Reset: %v", err)
	}
	pair(2)
	if f.FastCommits() == 0 {
		t.Fatal("the fast lane did not re-engage for the address sharing a terminated one's hot slot")
	}
}
