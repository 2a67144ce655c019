package wire

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/ids"
)

func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// rawPipe returns one end of a pipe bare, for hand-written frames — the
// bytes a peer built from other code than this package would send — and the
// other wrapped in a Conn.
func rawPipe(t *testing.T) (net.Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	c := NewConn(b)
	t.Cleanup(func() { a.Close(); c.Close() })
	return a, c
}

// rawFrame assembles a frame by hand.
func rawFrame(typ MsgType, payload string) []byte {
	n := len(payload) + 1
	return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), byte(typ)}, payload...)
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		_ = ca.WriteFrame(MsgEnroll, 0, 0, &Enroll{
			PID:  "listener-1",
			Role: "recipient[1]",
			Args: []any{"hello", 3.0},
			With: map[string][]string{"sender": {"A", "B"}},
		})
	}()
	typ, _, _, m, err := cb.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgEnroll {
		t.Fatalf("type = %v, want MsgEnroll", typ)
	}
	e := m.(*Enroll)
	if e.PID != "listener-1" || e.Role != "recipient[1]" || len(e.Args) != 2 {
		t.Fatalf("round trip mangled enrollment: %+v", e)
	}
	if got := e.With["sender"]; len(got) != 2 || got[0] != "A" {
		t.Fatalf("partner constraints mangled: %+v", e.With)
	}
}

// serverHandshake runs the host side without an ack decorator.
func serverHandshake(c *Conn, script string, maxVersion int) error {
	_, err := ServerHandshakeV(c, script, maxVersion, nil)
	return err
}

func TestHandshake(t *testing.T) {
	ca, cb := pipeConns(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serverHandshake(cb, "broadcast", Version) }()
	ack, err := ClientHandshakeV(ca, "broadcast", Version)
	if err != nil {
		t.Fatalf("ClientHandshakeV: %v", err)
	}
	if ack.Script != "broadcast" || ack.Version != Version {
		t.Fatalf("ack = %+v", ack)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("ServerHandshakeV: %v", err)
	}
}

func TestHandshakeScriptMismatch(t *testing.T) {
	ca, cb := pipeConns(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serverHandshake(cb, "lock_manager", MaxVersion) }()
	_, err := ClientHandshakeV(ca, "broadcast", MaxVersion)
	if err == nil || !strings.Contains(err.Error(), "lock_manager") {
		t.Fatalf("client err = %v, want script-mismatch rejection", err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted mismatched script")
	}
}

func TestHandshakeVersionMismatch(t *testing.T) {
	ca, cb := pipeConns(t)
	errCh := make(chan error, 1)
	go func() { errCh <- serverHandshake(cb, "s", MaxVersion) }()
	if err := ca.WriteFrame(MsgHello, 0, 0, &Hello{Magic: Magic, Version: Version + 7}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, _, err := ca.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgError {
		t.Fatalf("reply = %v, want MsgError", typ)
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted wrong version")
	}
}

// TestHandshakeMalformedHello checks the host answers a first frame it
// cannot use — rather than just dropping the connection — and says why: a
// HELLO that does not decode is told apart from a frame of another type.
func TestHandshakeMalformedHello(t *testing.T) {
	cases := []struct {
		name, want string
		frame      []byte
	}{
		{"garbage HELLO", "malformed HELLO", rawFrame(MsgHello, `{"magic":`)},
		{"empty HELLO", "malformed HELLO", rawFrame(MsgHello, "")},
		{"wrong type", "expected HELLO, got ENROLL", rawFrame(MsgEnroll, `{"pid":"p","role":"r"}`)},
		{"wrong type, garbage", "expected HELLO, got SEND", rawFrame(MsgSend, "\xff")},
		{"unknown type", "expected HELLO, got msg(99)", rawFrame(99, "{}")},
		{"bad magic", "bad magic", rawFrame(MsgHello, `{"magic":"HTTP","version":1}`)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, cb := rawPipe(t)
			errCh := make(chan error, 1)
			go func() { errCh <- serverHandshake(cb, "s", MaxVersion) }()
			if _, err := raw.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			typ, _, _, m, err := NewConn(raw).ReadFrame()
			if err != nil {
				t.Fatalf("no reply: %v", err)
			}
			if pe, ok := m.(*ProtoError); !ok || pe.Msg != tc.want {
				t.Fatalf("reply = %s %+v, want ERROR %q", typ, m, tc.want)
			}
			if err := <-errCh; err == nil {
				t.Fatal("host accepted the handshake")
			}
		})
	}
}

func TestFrameLengthGuard(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// A frame claiming to be larger than MaxFrame must be rejected
		// before any allocation of that size.
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgHello)}
		a.Write(hdr)
	}()
	c := NewConn(b)
	c.SetReadTimeout(2 * time.Second)
	if _, _, _, _, err := c.ReadFrame(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("ReadFrame = %v, want out-of-range error", err)
	}
}

func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   error
		is   error
	}{
		{"nil", nil, nil},
		{"role absent", fmt.Errorf("%w: recipient[2]", core.ErrRoleAbsent), core.ErrRoleAbsent},
		{"role finished", fmt.Errorf("%w: sender", core.ErrRoleFinished), core.ErrRoleFinished},
		{"unknown role", fmt.Errorf("%w: ghost", core.ErrUnknownRole), core.ErrUnknownRole},
		{"draining", core.ErrDraining, core.ErrDraining},
		{"closed", core.ErrClosed, core.ErrClosed},
		{"no branches", core.ErrNoBranches, core.ErrNoBranches},
		{"canceled", context.Canceled, context.Canceled},
		{"deadline", context.DeadlineExceeded, context.DeadlineExceeded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := EncodeError(tc.in).Err()
			if tc.in == nil {
				if out != nil {
					t.Fatalf("nil error round-tripped to %v", out)
				}
				return
			}
			if !errors.Is(out, tc.is) {
				t.Fatalf("errors.Is(%v, %v) = false after round trip", out, tc.is)
			}
			if out.Error() != tc.in.Error() {
				t.Fatalf("message changed: %q -> %q", tc.in.Error(), out.Error())
			}
		})
	}
}

// TestErrCodesTable pins the taxonomy's one table against the constants it
// is a table of and against both codecs: every Code* constant of wire.go has
// exactly one row, the v2 bytes are distinct and none is the escape byte, and
// an error of each row keeps its code, its text and what it unwraps to from
// EncodeError through a v1 and a v2 payload to Err.
func TestErrCodesTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]string{} // value -> name
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "Code") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
					v, _ := strconv.Unquote(lit.Value)
					consts[v] = name.Name
				}
			}
		}
		return true
	})
	if len(consts) == 0 {
		t.Fatal("found no Code* constant in wire.go")
	}
	rows, bytes := map[string]int{}, map[byte]string{}
	for _, c := range errCodes {
		rows[c.code]++
		if consts[c.code] == "" {
			t.Errorf("row %q is no Code* constant", c.code)
		}
		if c.b == 0 {
			t.Errorf("%s has byte 0, the escape to a string code", c.code)
		}
		if other, dup := bytes[c.b]; dup {
			t.Errorf("%s and %s share byte %d", other, c.code, c.b)
		}
		bytes[c.b] = c.code
	}
	for v, name := range consts {
		if rows[v] != 1 {
			t.Errorf("%s has %d rows, want 1", name, rows[v])
		}
	}

	for _, c := range errCodes {
		var in error
		is := c.sentinel
		switch c.code {
		case CodeOverloaded:
			in = &core.OverloadError{Script: "s", Reason: "full", RetryAfter: 50 * time.Millisecond}
		case CodeAborted:
			in, is = &core.AbortError{Script: "s", Performance: 3, Culprit: ids.Role("a"), Reason: "cut"}, core.ErrPerformanceAborted
		case CodeRoleError:
			in = &core.RoleError{Script: "s", Role: ids.Role("a"), Err: errors.New("boom")}
		case CodeOther:
			in = errors.New("anything else")
		default:
			in = fmt.Errorf("wrapped: %w", c.sentinel)
		}
		info := EncodeError(in)
		if info.Code != c.code {
			t.Errorf("EncodeError(%v).Code = %s, want %s", in, info.Code, c.code)
		}
		for ver := Version; ver <= MaxVersion; ver++ {
			stream := uint64(ver - Version) // v1 has no envelope
			raw, err := AppendPayload(nil, ver, MsgOpResult, stream, stream, &OpResult{Err: info})
			if err != nil {
				t.Fatalf("%s v%d: %v", c.code, ver, err)
			}
			_, _, m, err := ParsePayload(ver, MsgOpResult, raw)
			if err != nil {
				t.Fatalf("%s v%d: %v", c.code, ver, err)
			}
			got := m.(*OpResult).Err
			if got.Code != c.code || got.Err().Error() != in.Error() {
				t.Errorf("%s v%d: came back as %s %q, want %q", c.code, ver, got.Code, got.Err(), in)
			}
			if is != nil && !errors.Is(got.Err(), is) {
				t.Errorf("%s v%d: %v no longer unwraps to %v", c.code, ver, got.Err(), is)
			}
		}
	}
}

func TestAbortErrorRoundTrip(t *testing.T) {
	in := &core.AbortError{
		Script:      "broadcast",
		Performance: 7,
		Culprit:     ids.Member("recipient", 2),
		Reason:      "enroller disconnected",
	}
	out := EncodeError(in).Err()
	if !errors.Is(out, core.ErrPerformanceAborted) {
		t.Fatal("reconstructed abort does not unwrap to ErrPerformanceAborted")
	}
	var ae *core.AbortError
	if !errors.As(out, &ae) {
		t.Fatal("reconstructed abort is not *core.AbortError")
	}
	if ae.Culprit != in.Culprit || ae.Performance != 7 || ae.Script != "broadcast" || ae.Reason != in.Reason {
		t.Fatalf("abort fields mangled: %+v", ae)
	}
}

func TestRoleErrorRoundTrip(t *testing.T) {
	in := &core.RoleError{Script: "s", Role: ids.Role("sender"), Err: errors.New("boom")}
	out := EncodeError(in).Err()
	var re *core.RoleError
	if !errors.As(out, &re) {
		t.Fatalf("reconstructed %v is not *core.RoleError", out)
	}
	if re.Role != in.Role || re.Err.Error() != "boom" {
		t.Fatalf("role error mangled: %+v", re)
	}
}

func TestWithRoundTrip(t *testing.T) {
	with := map[ids.RoleRef]ids.PIDSet{
		ids.Role("sender"):        ids.NewPIDSet("A", "B"),
		ids.Member("helper", 2):   ids.NewPIDSet("C"),
		ids.Role("unconstrained"): nil,
	}
	enc := EncodeWith(with)
	if _, ok := enc["unconstrained"]; ok {
		t.Fatal("nil (unconstrained) set should be dropped from the wire form")
	}
	dec, err := DecodeWith(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec[ids.Role("sender")].Contains("A") || !dec[ids.Role("sender")].Contains("B") {
		t.Fatalf("sender constraint mangled: %v", dec)
	}
	if !dec[ids.Member("helper", 2)].Contains("C") {
		t.Fatalf("helper constraint mangled: %v", dec)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	ca, _ := pipeConns(t)
	ca.Close()
	if err := ca.WriteFrame(MsgHeartbeat, 0, 0, &Heartbeat{}); err == nil {
		t.Fatal("WriteFrame on closed conn succeeded")
	}
}

// TestOverloadErrorRoundTrip checks that an admission-control rejection
// survives the wire with its identity (errors.Is/As) and its RetryAfter
// hint intact.
func TestOverloadErrorRoundTrip(t *testing.T) {
	in := &core.OverloadError{
		Script:     "broadcast",
		RetryAfter: 75 * time.Millisecond,
		Reason:     "enrollment cap (4) reached",
	}
	out := EncodeError(in).Err()
	if !errors.Is(out, core.ErrOverloaded) {
		t.Fatal("reconstructed overload does not unwrap to ErrOverloaded")
	}
	var oe *core.OverloadError
	if !errors.As(out, &oe) {
		t.Fatalf("reconstructed %v is not *core.OverloadError", out)
	}
	if oe.Script != in.Script || oe.Reason != in.Reason || oe.RetryAfter != in.RetryAfter {
		t.Fatalf("overload fields mangled: %+v", oe)
	}
	if out.Error() != in.Error() {
		t.Fatalf("message changed: %q -> %q", in.Error(), out.Error())
	}
}

// TestOverloadSentinelRoundTrip checks the bare-sentinel form (no typed
// detail) still crosses as ErrOverloaded.
func TestOverloadSentinelRoundTrip(t *testing.T) {
	out := EncodeError(fmt.Errorf("%w: busy", core.ErrOverloaded)).Err()
	if !errors.Is(out, core.ErrOverloaded) {
		t.Fatalf("errors.Is(%v, ErrOverloaded) = false after round trip", out)
	}
}

// TestHandshakeOverloaded checks that a host at its connection cap can
// reject the handshake with OVERLOADED and the client surfaces it as a
// *core.OverloadError carrying the retry-after hint.
func TestHandshakeOverloaded(t *testing.T) {
	ca, cb := pipeConns(t)
	ca.SetReadTimeout(2 * time.Second)
	done := make(chan error, 1)
	go func() {
		// Host side at the conn cap: OVERLOADED in place of HELLO-ACK. (A
		// real host skips reading HELLO; the synchronous test pipe has no
		// kernel buffer, so drain it here.)
		if _, _, _, _, err := cb.ReadFrame(); err != nil {
			done <- err
			return
		}
		done <- cb.WriteFrame(MsgOverloaded, 0, 0, &Overloaded{RetryAfterMS: 50, Msg: "connection cap reached"})
	}()
	_, err := ClientHandshakeV(ca, "broadcast", MaxVersion)
	if werr := <-done; werr != nil {
		t.Fatalf("host write: %v", werr)
	}
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("ClientHandshakeV err = %v, want ErrOverloaded", err)
	}
	var oe *core.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("handshake rejection %v is not *core.OverloadError", err)
	}
	if oe.RetryAfter != 50*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 50ms", oe.RetryAfter)
	}
}

// TestReadBufferReleased checks one large frame does not pin its read
// buffer for the life of the connection: like the pooled write buffers,
// rbuf is dropped once a frame grew it past maxKeptBuf.
func TestReadBufferReleased(t *testing.T) {
	ca, cb := v2Pipe(t)
	go func() {
		_ = ca.WriteFrame(MsgSend, 1, 1, &Send{To: "a", Val: make([]byte, 1<<20)})
		_ = ca.WriteFrame(MsgSend, 1, 2, &Send{To: "a", Val: 7})
	}()
	for seq := uint64(1); seq <= 2; seq++ {
		_, _, got, m, err := cb.ReadFrame()
		if err != nil || got != seq {
			t.Fatalf("ReadFrame: seq %d, err %v", got, err)
		}
		if seq == 1 && len(m.(*Send).Val.([]byte)) != 1<<20 {
			t.Fatalf("large value mangled: %d bytes", len(m.(*Send).Val.([]byte)))
		}
	}
	if cap(cb.rbuf) > maxKeptBuf {
		t.Fatalf("cap(rbuf) = %d after a small frame, want <= %d", cap(cb.rbuf), maxKeptBuf)
	}
}

// TestWriteDeadlineCoversSpill: every write the flusher makes gets a write
// timeout of its own — a 64 KiB frame after write-side idleness is not cut by
// the expired deadline the last write left on the connection — and a write
// to a peer that never reads times out on the flusher: the failure is
// latched for the next writer and closes the socket under the reader.
func TestWriteDeadlineCoversSpill(t *testing.T) {
	big := &Send{To: "a", Val: make([]byte, 64<<10)}
	t.Run("reading peer", func(t *testing.T) {
		ca, cb := v2Pipe(t)
		ca.SetWriteTimeout(50 * time.Millisecond)
		got := drain(cb, 2)
		if err := ca.WriteFrame(MsgSend, 1, 1, &Send{To: "a", Val: 7}); err != nil {
			t.Fatalf("small frame: %v", err)
		}
		time.Sleep(100 * time.Millisecond) // the write's deadline lapses
		if err := ca.WriteFrame(MsgSend, 1, 2, big); err != nil {
			t.Fatalf("64 KiB frame after write-side idleness: %v", err)
		}
		if seqs := <-got; len(seqs) != 2 {
			t.Fatalf("peer read frames %v, want both", seqs)
		}
	})
	t.Run("peer that never reads", func(t *testing.T) {
		ca, _ := v2Pipe(t)
		ca.SetWriteTimeout(50 * time.Millisecond)
		start := time.Now()
		err := ca.WriteFrame(MsgSend, 1, 1, big)
		for err == nil && time.Since(start) < 2*time.Second {
			time.Sleep(5 * time.Millisecond)
			err = ca.WriteFrame(MsgSend, 1, 2, &Send{To: "a", Val: 7})
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v after %v, want a timeout within 2s", err, time.Since(start))
		}
		read := make(chan error, 1)
		go func() { _, _, _, _, err := ca.ReadFrame(); read <- err }()
		select {
		case err := <-read:
			if err == nil {
				t.Fatal("the reader read a frame from a connection whose write failed")
			}
		case <-time.After(time.Second):
			t.Fatal("the reader still waits on a connection whose write failed")
		}
	})
}

// TestReadLoopNeverWaitsOnAWrite: a read loop that answers every frame it
// reads with a 64 KiB frame, to a peer that writes and never reads, over a
// transport with no buffer at all, reads everything the peer sends — its
// answers wait in the write buffer for the flusher, which is stuck on the
// peer — and Close still returns promptly.
func TestReadLoopNeverWaitsOnAWrite(t *testing.T) {
	const frames = 32
	loop, peer := v2Pipe(t)
	go func() {
		for seq := uint64(1); seq <= frames; seq++ {
			if peer.WriteFrame(MsgSend, 1, seq, &Send{To: "a", Val: seq}) != nil {
				return
			}
		}
	}()
	answer := &OpResult{Val: make([]byte, 64<<10)}
	read := make(chan uint64, frames)
	go func() {
		for {
			_, _, seq, _, err := loop.NextFrame()
			if err != nil || loop.WriteFrame(MsgOpResult, 1, seq, answer) != nil {
				return
			}
			read <- seq
		}
	}()
	for n := 0; n < frames; n++ {
		select {
		case <-read:
		case <-time.After(5 * time.Second):
			t.Fatalf("the read loop stopped after %d of %d frames: it waits on its own write", n, frames)
		}
	}
	// The loop now waits for frame 33, having nudged the flusher on its way,
	// and the flusher is stuck on the peer.
	for deadline := time.Now().Add(5 * time.Second); loop.passes.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the read loop waits with its answers still buffered")
		}
	}
	start := time.Now()
	loop.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v behind a flusher stuck on the peer", d)
	}
}

// TestFlusherOnePassPerBurst: the writer that dirties a clean buffer nudges
// the flusher, the writers that follow it do not, so a burst that leaves in
// one flush costs one pass. (When every frame nudged, a frame written after
// the flusher had taken the burst's first nudge queued another, and each
// burst ended with a second, empty pass: two more yields, three more trips
// through the write lock.) On one processor the test decides who runs when:
// after the first frame of a burst it yields, the flusher takes the nudge
// and, batching on, yields back until the burst stops growing.
func TestFlusherOnePassPerBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ca, cb := v2Pipe(t)
	ca.SetWriteBatching(true)
	const bursts, frames = 16, 8
	seq := uint64(0)
	for b := 0; b < bursts; b++ {
		got := drain(cb, frames)
		for i := 0; i < frames; i++ {
			seq++
			if err := ca.WriteFrame(MsgSend, 1, seq, &Send{To: "a", Val: b}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				runtime.Gosched()
			}
		}
		if seqs := <-got; len(seqs) != frames {
			t.Fatalf("burst %d: peer read %d frames, want %d", b, len(seqs), frames)
		}
		for i := 0; i < 8; i++ {
			runtime.Gosched() // the flusher finishes whatever it still has to do and parks
		}
	}
	// One pass per burst; two of slack for a burst the scheduler split in two.
	if got := ca.passes.Load(); got > bursts+2 {
		t.Fatalf("%d bursts of %d frames took the flusher %d passes, want one per burst", bursts, frames, got)
	}
}

// deadlineLog wraps a connection and logs, in order, every read deadline set
// ("arm") and every read that reached it ("read").
type deadlineLog struct {
	net.Conn
	events []string
}

func (d *deadlineLog) SetReadDeadline(t time.Time) error {
	d.events = append(d.events, "arm")
	return d.Conn.SetReadDeadline(t)
}

func (d *deadlineLog) Read(p []byte) (int, error) {
	d.events = append(d.events, "read")
	return d.Conn.Read(p)
}

// TestReadDeadlineArmedPerWait pins when ReadFrame touches the read deadline:
// before every read that reaches the socket and only then. A burst that
// arrived in one segment costs one timer however many frames it holds, a
// frame whose body is still on its way gets a fresh timeout before the wait
// for it, and a silent connection still fails after readTimeout.
func TestReadDeadlineArmedPerWait(t *testing.T) {
	raw, nc := net.Pipe()
	log := &deadlineLog{Conn: nc}
	c := NewConn(log)
	t.Cleanup(func() { raw.Close(); c.Close() })
	const timeout = 100 * time.Millisecond
	c.SetReadTimeout(timeout)

	frame := rawFrame(MsgHeartbeat, "{}")
	var burst []byte
	for i := 0; i < 25; i++ {
		burst = append(burst, frame...)
	}
	split := rawFrame(MsgError, `{"msg":"a body that arrives in two segments"}`)
	go func() {
		_, _ = raw.Write(burst)
		_, _ = raw.Write(split[:10])
		_, _ = raw.Write(split[10:])
	}()

	for i := 0; i < 25; i++ {
		if _, _, _, _, err := c.ReadFrame(); err != nil {
			t.Fatalf("burst frame %d: %v", i, err)
		}
	}
	if got := strings.Join(log.events, " "); got != "arm read" {
		t.Fatalf("burst of 25 frames in one segment: %q, want one deadline and one read", got)
	}

	log.events = nil
	if _, _, _, m, err := c.ReadFrame(); err != nil || !strings.Contains(m.(*ProtoError).Msg, "two segments") {
		t.Fatalf("split frame: %+v, %v", m, err)
	}
	if got := strings.Join(log.events, " "); got != "arm read arm read" {
		t.Fatalf("frame in two segments: %q, want a deadline before each wait", got)
	}

	start := time.Now()
	_, _, _, _, err := c.ReadFrame()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent connection: err = %v, want a timeout", err)
	}
	if d := time.Since(start); d < timeout/2 || d > timeout+time.Second {
		t.Fatalf("silent connection failed after %v, want about %v", d, timeout)
	}
}

// TestLastCall: after LastCall the reader still gets every frame that has
// arrived and fails, with a timeout, at the first wait for one that has not —
// within the sweep, not the read timeout — and a reader already blocked on an
// idle connection is woken to do the same.
func TestLastCall(t *testing.T) {
	const readTimeout = 30 * time.Second
	timedOut := func(t *testing.T, c *Conn) {
		t.Helper()
		start := time.Now()
		_, _, _, _, err := c.ReadFrame()
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want a timeout", err)
		}
		if d := time.Since(start); d > readTimeout/10 {
			t.Fatalf("the last call ended after %v", d)
		}
	}
	t.Run("frames already in", func(t *testing.T) {
		raw, c := rawPipe(t)
		c.SetReadTimeout(readTimeout)
		frame := rawFrame(MsgHeartbeat, "{}")
		go raw.Write(append(append(append([]byte{}, frame...), frame...), frame...))
		if _, _, _, _, err := c.ReadFrame(); err != nil {
			t.Fatalf("first frame: %v", err)
		}
		c.LastCall()
		for i := 2; i <= 3; i++ {
			if _, _, _, _, err := c.ReadFrame(); err != nil {
				t.Fatalf("frame %d, in the buffer when LastCall came: %v", i, err)
			}
		}
		timedOut(t, c)
	})
	t.Run("blocked reader", func(t *testing.T) {
		_, c := rawPipe(t)
		c.SetReadTimeout(readTimeout)
		time.AfterFunc(20*time.Millisecond, c.LastCall)
		timedOut(t, c)
	})
}

// TestClosedConnReadsNothing: frames still in the read buffer when the
// connection is closed are not delivered. (Setting the read deadline on
// every frame used to see to that as a side effect.)
func TestClosedConnReadsNothing(t *testing.T) {
	raw, c := rawPipe(t)
	frame := rawFrame(MsgHeartbeat, "{}")
	go raw.Write(append(append([]byte{}, frame...), frame...))
	if _, _, _, _, err := c.ReadFrame(); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	c.Close()
	if typ, _, _, _, err := c.ReadFrame(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("closed connection delivered its buffered %s (err %v)", typ, err)
	}
}

// FuzzServerHandshake holds the host side of the handshake to its contract
// on an arbitrary first frame: no panic, an answer that is HELLO-ACK or
// ERROR, success exactly when it acked, and never a version outside
// [Version, maxVersion].
func FuzzServerHandshake(f *testing.F) {
	for _, hello := range []string{
		`{"magic":"SCRW","version":1,"max_version":2,"script":"s","resume":true}`,
		`{"magic":"SCRW","version":1}`,
		`{"magic":"SCRW","version":2,"max_version":1}`,
		`{"magic":"SCRW","version":0,"max_version":9}`,
		`{"magic":"SCRW","version":-3,"max_version":-1}`,
		`{"magic":"SCRW","version":8}`,
		`{"magic":"SCRW","version":1,"script":"other"}`,
		`{"magic":"HTTP","version":1}`,
		`{"magic":`,
		`null`,
		``,
	} {
		f.Add(uint8(MsgHello), []byte(hello), 2)
	}
	f.Add(uint8(MsgEnroll), []byte(`{"pid":"p","role":"r"}`), 1)
	f.Add(uint8(99), []byte{0xff}, 7)

	f.Fuzz(func(t *testing.T, typ uint8, payload []byte, maxVersion int) {
		raw, cb := rawPipe(t)
		errCh := make(chan error, 1)
		go func() { errCh <- serverHandshake(cb, "s", maxVersion) }()
		if _, err := raw.Write(rawFrame(MsgType(typ), string(payload))); err != nil {
			t.Fatal(err)
		}
		_, _, _, m, err := NewConn(raw).ReadFrame()
		if err != nil {
			t.Fatalf("first frame went unanswered: %v", err)
		}
		herr := <-errCh
		switch m := m.(type) {
		case *HelloAck:
			if herr != nil {
				t.Fatalf("host acked yet failed: %v", herr)
			}
			if m.Version < Version || m.Version > clampVersion(maxVersion) || cb.Version() != m.Version {
				t.Fatalf("negotiated v%d (conn v%d) with host max %d", m.Version, cb.Version(), maxVersion)
			}
		case *ProtoError:
			if herr == nil || cb.Version() != Version {
				t.Fatalf("host rejected with %q yet returned %v, conn v%d", m.Msg, herr, cb.Version())
			}
		default:
			t.Fatalf("host answered %T", m)
		}
	})
}

// TestReadFrameScratchValidUntilNextRead pins ReadFrame's contract from both
// sides. The message it returns is the connection's own struct for the type:
// the next frame of that type arrives in the same struct and shows nothing of
// the one before, whatever that one had set. And a copy of the struct taken
// before reading on stays good, with everything it points to — that is what
// the readers in internal/remote keep. Both codecs.
func TestReadFrameScratchValidUntilNextRead(t *testing.T) {
	for ver := 1; ver <= 2; ver++ {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			ca, cb := pipeConns(t)
			ca.SetVersion(ver)
			cb.SetVersion(ver)
			var stream, seq uint64
			if ver == 2 {
				stream, seq = 3, 1
			}
			rich := &OpResult{Val: []any{"one", "two"}, Peer: "a", Tag: "t", Index: 2, N: 5, Bool: true, Err: EncodeError(core.ErrRoleAbsent)}
			go func() {
				_ = ca.WriteFrame(MsgOpResult, stream, seq, rich)
				_ = ca.WriteFrame(MsgSend, stream, seq, &Send{To: "b", Tag: "u", Val: "between"})
				_ = ca.WriteFrame(MsgOpResult, stream, seq, &OpResult{Val: "bare"})
			}()
			read := func(want MsgType) any {
				t.Helper()
				typ, _, _, m, err := cb.ReadFrame()
				if err != nil || typ != want {
					t.Fatalf("read %s (%v), want %s", typ, err, want)
				}
				return m
			}
			first := read(MsgOpResult).(*OpResult)
			kept := *first
			read(MsgSend)
			second := read(MsgOpResult).(*OpResult)
			if second != first {
				t.Fatal("the second OP-RESULT was decoded into a struct of its own")
			}
			if want := (OpResult{Val: "bare"}); *second != want {
				t.Fatalf("second OP-RESULT = %+v, want %+v and nothing of the first", *second, want)
			}
			if list, ok := kept.Val.([]any); !ok || len(list) != 2 || list[0] != "one" || list[1] != "two" ||
				kept.Peer != "a" || kept.Tag != "t" || kept.Index != 2 || kept.N != 5 || !kept.Bool ||
				kept.Err == nil || !errors.Is(kept.Err.Err(), core.ErrRoleAbsent) {
				t.Fatalf("the copy taken before reading on = %+v (err %+v), want the first frame intact", kept, kept.Err)
			}
		})
	}
}

// TestWriteFrameEncodesInPlace pins the write side: a frame is encoded at the
// end of the write buffer (no scratch buffer, no allocation), a message that
// does not encode leaves nothing buffered, and the frames around it arrive
// whole and in order — including one of 40 KiB, which grows the buffer.
func TestWriteFrameEncodesInPlace(t *testing.T) {
	ca, cb := v2Pipe(t)
	big := make([]byte, 40<<10)
	go func() {
		_ = ca.WriteFrame(MsgSend, 1, 1, &Send{To: "a", Val: 1})
		if err := ca.WriteFrame(MsgSend, 1, 2, &Send{To: "a", Val: make(chan int)}); err == nil {
			t.Error("a channel value encoded")
		}
		_ = ca.WriteFrame(MsgSend, 1, 3, &Send{To: "a", Val: big})
		_ = ca.WriteFrame(MsgSend, 1, 4, &Send{To: "a", Val: 4})
	}()
	for _, want := range []uint64{1, 3, 4} {
		_, _, seq, m, err := cb.ReadFrame()
		if err != nil || seq != want {
			t.Fatalf("read seq %d (%v), want %d", seq, err, want)
		}
		if b, ok := m.(*Send).Val.([]byte); want == 3 && (!ok || len(b) != len(big)) {
			t.Fatalf("spilled frame carried %T of %d bytes", m.(*Send).Val, len(b))
		}
	}

	if raceEnabled {
		return // the race detector allocates on its own account
	}
	sink, _ := net.Pipe()
	c := NewConn(discardConn{sink})
	c.SetVersion(2)
	defer c.Close()
	send := &Send{To: "buffer", Tag: "item", Val: 7}
	if got := testing.AllocsPerRun(1000, func() { _ = c.WriteFrame(MsgSend, 1, 1, send) }); got > 0 {
		t.Fatalf("a steady-state v2 WriteFrame allocates %v times, want 0", got)
	}
}

// discardConn is a connection whose writes go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
