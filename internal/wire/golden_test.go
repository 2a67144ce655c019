package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden_frames.txt from the current encoder.
// The checked-in file was generated at the commit before the frame paths
// were merged; regenerate it only for a deliberate wire-format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_frames.txt")

const goldenPath = "testdata/golden_frames.txt"

// goldenMsgs holds one instance of every MsgType, with every field set and
// every value tag of the v2 value codec used at least once. Maps have one key:
// v2 writes them in iteration order, which a golden file cannot pin.
var goldenMsgs = []struct {
	t MsgType
	m any
}{
	{MsgHello, &Hello{Magic: Magic, Version: 1, MaxVersion: 2, Script: "star_broadcast", Resume: true}},
	{MsgHelloAck, &HelloAck{Version: 2, Script: "star_broadcast", HeartbeatTimeoutMS: 3000, ResumeToken: "74a1b2c3d4e5f607", ResumeWindowMS: 5000}},
	{MsgEnroll, &Enroll{
		PID: "worker-7", Role: "recipient[3]", Args: []any{"hello", 42, 3.5, true, false, nil},
		With: map[string][]string{"sender": {"A", "B"}}, DeadlineMS: 1722945600000, TraceID: "00f1e2d3c4b5a697",
	}},
	{MsgOfferAck, &OfferAck{Performance: 17, Role: "recipient[3]", TraceID: "00f1e2d3c4b5a697"}},
	{MsgSend, &Send{To: "sender", Tag: "ack", Val: map[string]any{"k": []any{-1, "x", []byte{0, 1, 2}}}}},
	{MsgSendAll, &SendAll{Tos: []string{"r[0]", "r[1]", "r[2]"}, Val: []string{"p", "q"}}},
	{MsgRecv, &Recv{From: "sender", Tag: "t"}},
	{MsgRecvAny, &Recv{}},
	{MsgSelect, &Select{Branches: []SelectBranch{
		{Send: true, Peer: "a", Tag: "x", Val: 9, Index: 0},
		{AnyPeer: true, Tag: "y", Index: 2},
		{Peer: "b", Index: 3},
	}}},
	{MsgQuery, &Query{Kind: QueryFamilySize, Role: "recipient[1]", Name: "recipient"}},
	{MsgBodyDone, &BodyDone{Results: []any{"r", 2}, Err: &ErrInfo{Code: CodeRoleFinished, Msg: "role finished: sender"}}},
	{MsgOpResult, &OpResult{
		Val: uint64(math.MaxUint64), Peer: "p[1]", Tag: "t", Index: 3, N: 64, Bool: true,
		Err: &ErrInfo{Code: "brand_new", Msg: "m"},
	}},
	{MsgComplete, &Complete{Performance: 5, Role: "r", Values: []any{1.5, math.MinInt64}, Err: &ErrInfo{
		Code: CodeAborted, Msg: "aborted", Script: "s", Performance: 5, Culprit: "c[0]", Reason: "boom",
		Role: "r", RetryAfterMS: 250,
	}}},
	{MsgAbort, &Abort{Performance: 8, Culprit: "c[0]", Reason: "gone"}},
	{MsgDrain, &Drain{}},
	{MsgHeartbeat, &Heartbeat{}},
	{MsgError, &ProtoError{Msg: "malformed HELLO"}},
	{MsgOverloaded, &Overloaded{RetryAfterMS: 50, Msg: "connection cap reached"}},
	{MsgCancel, &Cancel{}},
	{MsgResume, &Resume{Token: "74a1b2c3d4e5f607", RecvCount: 42}},
	{MsgResumeAck, &ResumeAck{RecvCount: 17}},
	{MsgAck, &Ack{Count: 128}},
	{MsgBye, &Bye{}},
}

// encodeOnWire writes m through a real Conn at protocol version ver and
// returns the exact bytes the transport saw (length header included) in
// hex, or "-" when the codec refuses the message.
func encodeOnWire(t *testing.T, ver int, typ MsgType, m any) string {
	t.Helper()
	a, b := net.Pipe()
	c := NewConn(a)
	c.SetVersion(ver)
	var stream, seq uint64
	if ver >= 2 {
		stream, seq = 5, 9
	}
	raw := make(chan []byte, 1)
	go func() {
		p, _ := io.ReadAll(b)
		raw <- p
	}()
	err := c.WriteFrame(typ, stream, seq, m)
	c.Close()
	p := <-raw
	b.Close()
	if err != nil {
		if len(p) != 0 {
			t.Fatalf("v%d %s: refused (%v) yet wrote %d bytes", ver, typ, err, len(p))
		}
		return "-"
	}
	return hex.EncodeToString(p)
}

// TestGoldenFrames holds both codecs to the bytes the parent commit put on
// the wire for the same messages, and checks the golden bytes still decode.
func TestGoldenFrames(t *testing.T) {
	var got bytes.Buffer
	for _, g := range goldenMsgs {
		for _, ver := range []int{1, 2} {
			fmt.Fprintf(&got, "v%d %s %s\n", ver, g.t, encodeOnWire(t, ver, g.t, g.m))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden file has %d lines, encoder produced %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("wire bytes changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
	// The parent's bytes must also read back: every golden frame decodes
	// (but CANCEL on v1, which has no such message) to its table type.
	for i, line := range wantLines[:2*len(goldenMsgs)] {
		g, ver := goldenMsgs[i/2], 1+i%2
		frame, err := hex.DecodeString(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			continue // "-": the codec refuses to encode it
		}
		_, _, m, err := ParsePayload(ver, g.t, frame[5:])
		if refused := ver == 1 && g.t == MsgCancel; (err != nil) != refused {
			t.Errorf("v%d %s golden frame: decode error %v", ver, g.t, err)
		} else if err == nil && fmt.Sprintf("%T", m) != fmt.Sprintf("%T", g.m) {
			t.Errorf("v%d %s golden frame decoded as %T, want %T", ver, g.t, m, g.m)
		}
	}
	if len(goldenMsgs) != len(msgTable)-1 {
		t.Errorf("golden table covers %d message types, the protocol has %d", len(goldenMsgs), len(msgTable)-1)
	}
}
