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
	live     []Addr   // absent: the addresses TerminateAbsentID is told are live
}

var (
	scriptAddrs = []Addr{"a", "b", "c", "d", "e", "f", "g", "h"}
	scriptTags  = []Tag{"x", "x", "x", "y"}
	errScript   = errors.New("script abort")
)

// genScript draws n steps: sends, receives, 2–4-branch alternatives,
// Terminate, TerminateAbsentID, context withdrawals and, if asked, one Abort
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

// front is how a script's steps reach the fabric: by address, or by the
// endpoint IDs the addresses were interned to.
type front struct {
	do        func(ctx context.Context, owner Addr, branches []Branch) (Outcome, error)
	terminate func(Addr)
}

func byName(f *Fabric) front { return front{f.Do, func(a Addr) { f.Terminate(a) }} }

func byID(f *Fabric) front {
	return front{
		do: func(ctx context.Context, owner Addr, branches []Branch) (Outcome, error) {
			alts := make([]IDBranch, len(branches))
			for i, br := range branches {
				alts[i] = IDBranch{Dir: br.Dir, Peer: noPeer, AnyPeer: br.AnyPeer, Tag: br.Tag, AnyTag: br.AnyTag, Val: br.Val}
				if br.Peer != "" {
					alts[i].Peer = f.Endpoint(br.Peer)
				}
			}
			out, err := f.DoID(ctx, f.Endpoint(owner), alts)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Index: out.Index, Peer: f.table()[out.Peer].addr, Tag: out.Tag, Val: out.Val}, nil
		},
		terminate: func(a Addr) { f.TerminateID(f.Endpoint(a)) },
	}
}

// waitingAddrs is WaitingIDs by name, sorted: a script picks the op it answers
// by position in it, and a name's ID depends on when a front first used it.
func waitingAddrs(f *Fabric) []Addr {
	var out []Addr
	for _, id := range f.WaitingIDs() {
		out = append(out, f.table()[id].addr)
	}
	slices.Sort(out)
	return out
}

// waiting reports whether a owns a pending operation, by WaitingIDs.
func waiting(f *Fabric, a Addr) bool {
	return slices.Contains(f.WaitingIDs(), f.Endpoint(a))
}

// runScript drives script against f through via, closes f, and returns one
// line per step: an op's outcome or error, or what the step did.
func runScript(t *testing.T, f *Fabric, via front, script []step) []string {
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
		if fl == nil || !waiting(f, a) {
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
			if waiting := waitingAddrs(f); st.answer >= 0 && len(waiting) > 0 {
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
				out, err := via.do(ctx, owner, branches)
				log[i] = fmt.Sprintf("%s %+v: %+v, %v", owner, branches, out, err)
			}()
			await("the op to return or pend", func() bool { return isDone(fl) || waiting(f, owner) })
		case "terminate":
			via.terminate(st.addr)
			log[i] = "terminated " + string(st.addr)
		case "absent":
			f.TerminateAbsentID(liveIDs(f, st.live...))
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
		fresh := New()
		want := runScript(t, fresh, byName(fresh), script)
		got := runScript(t, reused, byName(reused), script)
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

// The operations that take addresses intern them and call the ones that take
// endpoint IDs, so a script driven through either must commit the same pairs
// in the same order and fail the same ops the same way — first-posted order
// and seeded draws alike. Seven seeds, an Abort in the sixth, as above.
func TestNameAndIDFrontsCommitAlike(t *testing.T) {
	const steps = 80
	for r := 0; r < 7; r++ {
		script := genScript(rand.New(rand.NewSource(int64(1000+r))), steps, r%6 == 5)
		for mode, opts := range map[string][]Option{"fifo": nil, "random": {WithRandomMatching(int64(r))}} {
			named, numbered := New(opts...), New(opts...)
			want := runScript(t, named, byName(named), script)
			got := runScript(t, numbered, byID(numbered), script)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s step %d (%+v):\n by name: %s\n by id:   %s", 1000+r, mode, i, script[i], want[i], got[i])
				}
			}
		}
	}
}

// A terminated endpoint is hot for the rest of the scope, and it alone: the
// mark is the endpoint's own, so no other address is kept off the fast lane
// on its account (a hashed slot kept every address colliding with it off).
// Reset takes the mark down with the termination.
func TestTerminationHeatsOnlyItsOwnEndpoint(t *testing.T) {
	f := New()
	ctx := ctxT(t)
	pair := func(from Addr, v int) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- f.Send(ctx, from, "peer", "t", v) }()
		if got, err := f.Recv(ctx, "peer", from, "t"); err != nil || got != v {
			t.Fatalf("Recv = %v, %v, want %d", got, err, v)
		}
		if err := <-done; err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	f.Terminate("dead")
	for i := 0; i < 300; i++ { // more addresses than the hashed table had slots
		pair(Addr(fmt.Sprintf("live%d", i)), i)
	}
	if n := f.FastCommits(); n != 300 {
		t.Fatalf("%d of 300 pairs committed on the fast lane beside a terminated endpoint", n)
	}
	f.Close()
	f.Reset()
	if err := f.checkQuiescent(); err != nil {
		t.Fatalf("state survived Reset: %v", err)
	}
	pair("dead", 1)
	if f.FastCommits() != 1 {
		t.Fatal("the fast lane did not re-engage for the endpoint terminated in the scope before")
	}
}
