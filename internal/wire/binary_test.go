package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/scriptabs/goscript/internal/core"
)

// roundTripV2 encodes m under v2 and decodes it back, failing the test on
// any asymmetry in the envelope.
func roundTripV2(t *testing.T, typ MsgType, stream, seq uint64, m any) any {
	t.Helper()
	payload, err := AppendPayload(nil, 2, typ, stream, seq, m)
	if err != nil {
		t.Fatalf("AppendPayload(%s): %v", typ, err)
	}
	gs, gq, out, err := ParsePayload(2, typ, payload)
	if err != nil {
		t.Fatalf("ParsePayload(%s): %v", typ, err)
	}
	if gs != stream || gq != seq {
		t.Fatalf("%s envelope = (%d, %d), want (%d, %d)", typ, gs, gq, stream, seq)
	}
	return out
}

// TestV2RoundTripAllMessages walks msgTable, so a message type added there
// without codec cases (or without a golden instance) fails here. Each
// instance must come back as the pointer form the table constructs, equal
// to what was sent in v1's terms — its JSON rendering, the sense in which
// v2 is value-complete with respect to v1; TestV2ValueCodec pins where v2
// is deliberately richer. The three handshake messages are exchanged
// before a version is agreed and must have no v2 encoding.
func TestV2RoundTripAllMessages(t *testing.T) {
	handshakeOnly := map[MsgType]bool{MsgHello: true, MsgHelloAck: true, MsgOverloaded: true}
	golden := make(map[MsgType]any, len(goldenMsgs))
	for _, g := range goldenMsgs {
		golden[g.t] = g.m
	}
	for i := 1; i < len(msgTable); i++ {
		typ := MsgType(i)
		in, ok := golden[typ]
		if !ok {
			t.Errorf("%s has no instance in goldenMsgs", typ)
			continue
		}
		if got, want := reflect.TypeOf(in), reflect.TypeOf(msgTable[typ].new()); got != want {
			t.Errorf("%s: golden instance is %v, the table constructs %v", typ, got, want)
		}
		if handshakeOnly[typ] {
			if _, err := AppendPayload(nil, 2, typ, 0, 0, in); err == nil {
				t.Errorf("%s encodes under v2; the handshake is v1 only", typ)
			}
			if _, _, _, err := ParsePayload(2, typ, []byte{0, 0}); err == nil {
				t.Errorf("%s decodes under v2; the handshake is v1 only", typ)
			}
			continue
		}
		out := roundTripV2(t, typ, 3, 9, in)
		if reflect.TypeOf(out) != reflect.TypeOf(in) {
			t.Errorf("%s decoded as %T, want %T", typ, out, in)
		}
		want, _ := json.Marshal(in)
		if got, _ := json.Marshal(out); !bytes.Equal(got, want) {
			t.Errorf("%s round trip:\n got  %s\n want %s", typ, got, want)
		}
		// The value form is not a second encodable form.
		if _, err := AppendPayload(nil, 2, typ, 3, 9, reflect.ValueOf(in).Elem().Interface()); err == nil {
			t.Errorf("%s: value form encoded; only the pointer form should", typ)
		}
	}
	// Fields the JSON comparison cannot see into: concrete error identity
	// and partner constraints with an empty set.
	enroll := &Enroll{PID: "p", Role: "r", With: map[string][]string{"sender": {"A", "B"}, "observer": {}}}
	if got := roundTripV2(t, MsgEnroll, 3, 0, enroll).(*Enroll); !reflect.DeepEqual(got, enroll) {
		t.Fatalf("Enroll round trip: got %+v want %+v", got, enroll)
	}
	comp := roundTripV2(t, MsgComplete, 6, 0, &Complete{
		Performance: 5, Err: EncodeError(&core.AbortError{Script: "s", Performance: 5, Reason: "boom"}),
	}).(*Complete)
	var ae *core.AbortError
	if comp.Performance != 5 || !errors.As(comp.Err.Err(), &ae) || ae.Reason != "boom" {
		t.Fatalf("Complete round trip: %+v", comp)
	}
}

// TestV2ValueCodec pins the value-type mapping: v2 preserves integer-ness
// (unlike v1's JSON, which coerces every number to float64), []byte stays
// []byte, and unmodeled types survive via the JSON fallback with v1
// semantics.
func TestV2ValueCodec(t *testing.T) {
	cases := []struct {
		in, want any
	}{
		{nil, nil},
		{true, true},
		{false, false},
		{0, 0},
		{-1, -1},
		{math.MaxInt64, math.MaxInt64},
		{math.MinInt64, math.MinInt64},
		{int32(7), 7},
		{uint8(255), 255},
		{uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{3.25, 3.25},
		{float32(1.5), 1.5},
		{math.Inf(-1), math.Inf(-1)},
		{"héllo", "héllo"},
		{"", ""},
		{[]byte{0, 1, 2}, []byte{0, 1, 2}},
		{[]any{1, "a", nil}, []any{1, "a", nil}},
		{map[string]any{"x": []any{true}}, map[string]any{"x": []any{true}}},
		// JSON fallback: a struct-ish type arrives as v1 would deliver it.
		{struct {
			A int `json:"a"`
		}{5}, map[string]any{"a": 5.0}},
		{[]string{"p", "q"}, []any{"p", "q"}},
	}
	for _, tc := range cases {
		out := roundTripV2(t, MsgSend, 1, 1, &Send{To: "r", Val: tc.in}).(*Send)
		if !reflect.DeepEqual(out.Val, tc.want) {
			t.Errorf("value %#v (%T) round-tripped to %#v (%T), want %#v (%T)",
				tc.in, tc.in, out.Val, out.Val, tc.want, tc.want)
		}
	}
}

func TestV2ErrorTaxonomyRoundTrip(t *testing.T) {
	sentinels := []error{
		core.ErrRoleAbsent, core.ErrRoleFinished, core.ErrUnknownRole,
		core.ErrClosed, core.ErrDraining, core.ErrNoBranches,
		context.Canceled, context.DeadlineExceeded,
	}
	for _, want := range sentinels {
		out := roundTripV2(t, MsgOpResult, 1, 1, &OpResult{Err: EncodeError(fmt.Errorf("wrapped: %w", want))}).(*OpResult)
		if got := out.Err.Err(); !errors.Is(got, want) {
			t.Errorf("sentinel %v lost across v2 wire: got %v", want, got)
		}
	}

	oe := &core.OverloadError{Script: "s", Reason: "shed", RetryAfter: 250000000}
	out := roundTripV2(t, MsgComplete, 1, 0, &Complete{Err: EncodeError(oe)}).(*Complete)
	var gotOE *core.OverloadError
	if !errors.As(out.Err.Err(), &gotOE) || gotOE.RetryAfter != oe.RetryAfter || gotOE.Reason != "shed" {
		t.Fatalf("OverloadError across v2 wire: %+v", out.Err)
	}

	// An unknown future code string survives via the escape hatch.
	raw, err := AppendPayload(nil, 2, MsgOpResult, 1, 1, &OpResult{Err: &ErrInfo{Code: "brand_new", Msg: "m"}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m, err := ParsePayload(2, MsgOpResult, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(*OpResult).Err; got.Code != "brand_new" || got.Msg != "m" {
		t.Fatalf("unknown code mangled: %+v", got)
	}
}

// TestV2FrameConn exercises WriteFrame/ReadFrame over a real connection
// pair, including interleaved streams.
func TestV2FrameConn(t *testing.T) {
	ca, cb := pipeConns(t)
	ca.SetVersion(2)
	cb.SetVersion(2)
	go func() {
		_ = ca.WriteFrame(MsgSend, 1, 1, &Send{To: "a", Val: 10})
		_ = ca.WriteFrame(MsgSend, 2, 1, &Send{To: "b", Val: 20})
		_ = ca.WriteFrame(MsgBodyDone, 1, 0, &BodyDone{Results: []any{"done"}})
	}()
	wantStreams := []uint64{1, 2, 1}
	for i := 0; i < 3; i++ {
		typ, stream, _, m, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if stream != wantStreams[i] {
			t.Fatalf("frame %d stream = %d, want %d", i, stream, wantStreams[i])
		}
		switch i {
		case 0, 1:
			if typ != MsgSend {
				t.Fatalf("frame %d type = %s", i, typ)
			}
		case 2:
			if m.(*BodyDone).Results[0] != "done" {
				t.Fatalf("BodyDone mangled: %+v", m)
			}
		}
	}
}

// TestV1FrameConn checks WriteFrame/ReadFrame degrade to JSON on a v1
// connection (and reject the v2-only envelope).
func TestV1FrameConn(t *testing.T) {
	ca, cb := pipeConns(t)
	if err := ca.WriteFrame(MsgSend, 1, 0, &Send{To: "x"}); err == nil {
		t.Fatal("v1 WriteFrame accepted a stream ID")
	}
	go func() { _ = ca.WriteFrame(MsgSend, 0, 0, &Send{To: "x", Val: 1.5}) }()
	typ, stream, seq, m, err := cb.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != MsgSend || stream != 0 || seq != 0 {
		t.Fatalf("v1 frame envelope: %s %d %d", typ, stream, seq)
	}
	if got := m.(*Send); got.To != "x" || got.Val != 1.5 {
		t.Fatalf("v1 frame mangled: %+v", got)
	}
}

func TestHandshakeNegotiation(t *testing.T) {
	cases := []struct {
		name               string
		clientMax, hostMax int
		want               int
	}{
		{"both v2", 2, 2, 2},
		{"old host", 2, 1, 1},
		{"old client", 1, 2, 1},
		{"both v1", 1, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ca, cb := pipeConns(t)
			errCh := make(chan error, 1)
			var hello Hello
			go func() {
				var err error
				hello, err = ServerHandshakeV(cb, "s", tc.hostMax, func(h Hello, ack *HelloAck) {
					ack.HeartbeatTimeoutMS = int64(1000 * ack.Version)
				})
				errCh <- err
			}()
			ack, err := ClientHandshakeV(ca, "s", tc.clientMax)
			if err != nil {
				t.Fatalf("ClientHandshakeV: %v", err)
			}
			if err := <-errCh; err != nil {
				t.Fatalf("ServerHandshakeV: %v", err)
			}
			if ack.Version != tc.want || ca.Version() != tc.want || cb.Version() != tc.want {
				t.Fatalf("negotiated (ack %d, client %d, host %d), want %d",
					ack.Version, ca.Version(), cb.Version(), tc.want)
			}
			// The decorator sees the negotiated version and its fields reach
			// the client; a client advertises resumption iff it offers v2.
			if ack.HeartbeatTimeoutMS != int64(1000*tc.want) {
				t.Fatalf("decorated ack field = %d, want %d", ack.HeartbeatTimeoutMS, 1000*tc.want)
			}
			if hello.Resume != (tc.clientMax >= 2) || hello.MaxVersion != tc.clientMax {
				t.Fatalf("host saw HELLO %+v from a client offering up to v%d", hello, tc.clientMax)
			}
		})
	}
}

// TestHandshakeLegacyInterop proves the handshake pair interoperates with a
// pre-v2 peer in both directions. The legacy side is written out by hand —
// a HELLO without max_version, a bare v1 HELLO-ACK — because those bytes,
// not any function of this package, are what such a peer puts on the wire.
func TestHandshakeLegacyInterop(t *testing.T) {
	t.Run("legacy client, negotiating host", func(t *testing.T) {
		raw, cb := rawPipe(t)
		errCh := make(chan error, 1)
		go func() { errCh <- serverHandshake(cb, "s", MaxVersion) }()
		if _, err := raw.Write(rawFrame(MsgHello, `{"magic":"SCRW","version":1,"script":"s"}`)); err != nil {
			t.Fatal(err)
		}
		_, _, _, m, err := NewConn(raw).ReadFrame()
		if err != nil {
			t.Fatalf("legacy client read: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("ServerHandshakeV: %v", err)
		}
		if ack, ok := m.(*HelloAck); !ok || ack.Version != 1 || ack.Script != "s" || cb.Version() != 1 {
			t.Fatalf("legacy client got %+v, host side v%d", m, cb.Version())
		}
	})
	t.Run("negotiating client, legacy host", func(t *testing.T) {
		raw, ca := rawPipe(t)
		errCh := make(chan error, 1)
		go func() {
			_, _, _, m, err := NewConn(raw).ReadFrame()
			if h, ok := m.(*Hello); err == nil && (!ok || h.Magic != Magic || h.Version != 1) {
				err = fmt.Errorf("legacy host cannot accept HELLO %+v", m)
			}
			if err == nil {
				_, err = raw.Write(rawFrame(MsgHelloAck, `{"version":1,"script":"s"}`))
			}
			errCh <- err
		}()
		ack, err := ClientHandshakeV(ca, "s", MaxVersion)
		if err != nil {
			t.Fatalf("ClientHandshakeV against legacy host: %v", err)
		}
		if err := <-errCh; err != nil {
			t.Fatalf("legacy host: %v", err)
		}
		if ack.Version != 1 || ca.Version() != 1 || ack.ResumeToken != "" {
			t.Fatalf("negotiating client got %+v from legacy host (conn v%d)", ack, ca.Version())
		}
	})
}

// TestV2DecodeMalformed spot-checks the decoder's totality on hand-built
// corruptions; FuzzParsePayload explores the space exhaustively.
func TestV2DecodeMalformed(t *testing.T) {
	good, err := AppendPayload(nil, 2, MsgEnroll, 3, 0, &Enroll{
		PID: "p", Role: "r", Args: []any{"x", 1}, With: map[string][]string{"s": {"A"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a valid payload must error, not panic.
	for i := 0; i < len(good); i++ {
		if _, _, _, err := ParsePayload(2, MsgEnroll, good[:i]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, _, err := ParsePayload(2, MsgEnroll, append(append([]byte{}, good...), 0xFF)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A length claim far beyond the payload must not allocate or succeed.
	huge := []byte{0x01, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, _, _, err := ParsePayload(2, MsgEnroll, huge); err == nil {
		t.Fatal("oversized length claim accepted")
	}
	// Deep value nesting is cut off, not recursed to death.
	payload := []byte{0x01, 0x01}        // stream, seq
	payload = append(payload, 0x01, 'r') // To = "r"
	payload = append(payload, 0x00)      // Tag = ""
	for i := 0; i < 100; i++ {
		payload = append(payload, vList, 0x01) // list of 1 containing...
	}
	payload = append(payload, vNil)
	if _, _, _, err := ParsePayload(2, MsgSend, payload); !errors.Is(err, errTooDeep) {
		t.Fatalf("deep nesting: got %v, want errTooDeep", err)
	}
}

func FuzzParsePayload(f *testing.F) {
	// Seed with one valid encoding per message type, plus corruptions the
	// unit tests found interesting.
	seedMsgs := []struct {
		t MsgType
		m any
	}{
		{MsgEnroll, &Enroll{PID: "p", Role: "r[0]", Args: []any{1, "s", 2.5, nil, true}, With: map[string][]string{"a": {"X"}}, DeadlineMS: 99, TraceID: "00000000000000a1"}},
		{MsgOfferAck, &OfferAck{Performance: 3, Role: "r", TraceID: "00000000000000a1"}},
		{MsgSend, &Send{To: "peer", Tag: "t", Val: map[string]any{"k": []any{1, "v"}}}},
		{MsgSendAll, &SendAll{Tos: []string{"a", "b"}, Val: []byte{1, 2}}},
		{MsgRecv, &Recv{From: "p", Tag: "g"}},
		{MsgRecvAny, &Recv{}},
		{MsgSelect, &Select{Branches: []SelectBranch{{Send: true, Peer: "p", Val: 1, Index: 0}, {AnyPeer: true, Index: 1}}}},
		{MsgQuery, &Query{Kind: QueryTerminated, Role: "r"}},
		{MsgBodyDone, &BodyDone{Results: []any{"x"}, Err: EncodeError(core.ErrClosed)}},
		{MsgOpResult, &OpResult{Val: 7, Peer: "p", Index: 2, N: 3, Bool: true, Err: EncodeError(context.Canceled)}},
		{MsgComplete, &Complete{Performance: 1, Role: "r", Values: []any{1}, Err: EncodeError(&core.AbortError{Reason: "x"})}},
		{MsgAbort, &Abort{Performance: 2, Culprit: "c", Reason: "r"}},
		{MsgDrain, &Drain{}},
		{MsgHeartbeat, &Heartbeat{}},
		{MsgCancel, &Cancel{}},
		{MsgResume, &Resume{Token: "74a1b2c3d4e5f607", RecvCount: 42}},
		{MsgResumeAck, &ResumeAck{RecvCount: 17}},
		{MsgAck, &Ack{Count: 128}},
		{MsgBye, &Bye{}},
		{MsgError, &ProtoError{Msg: "m"}},
	}
	for _, s := range seedMsgs {
		payload, err := AppendPayload(nil, 2, s.t, 5, 9, s.m)
		if err != nil {
			f.Fatalf("seed %s: %v", s.t, err)
		}
		f.Add(uint8(s.t), payload)
		// And the type's empty message: decoded into a struct one of the above
		// was decoded into, it shows a field the decoder forgot to reset.
		if payload, err = AppendPayload(nil, 2, s.t, 5, 9, msgTable[s.t].new()); err != nil {
			f.Fatalf("empty %s: %v", s.t, err)
		}
		f.Add(uint8(s.t), payload)
	}
	f.Add(uint8(MsgEnroll), []byte(`{"pid":"p","role":"r"}`)) // v1's form, bare, over the rich seed above
	f.Add(uint8(MsgSend), []byte{})
	f.Add(uint8(MsgSend), []byte{0x01, 0x01, 0x01, 'r', 0x00, vList, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(uint8(99), []byte{0x00, 0x00})

	// One decoder across all inputs, as on a connection: whatever earlier
	// frames left in its table of names and in its message structs, a frame
	// decodes to what it decodes to without one. Every type's struct is
	// dirtied first by a seed frame of that type, so the first input of a type
	// already lands on a different frame's remains; later ones land on
	// whatever the fuzzer sent before. Both codecs, one decoder each.
	var dirty [3]decoder
	for _, s := range seedMsgs {
		for ver := 1; ver <= 2; ver++ {
			var stream, seq uint64
			if ver == 2 {
				stream, seq = 5, 9
			} else if s.t == MsgCancel {
				continue // no v1 form
			}
			payload, err := AppendPayload(nil, ver, s.t, stream, seq, s.m)
			if err != nil {
				f.Fatalf("seed %s v%d: %v", s.t, ver, err)
			}
			if _, _, _, err := parsePayload(ver, s.t, payload, &dirty[ver]); err != nil {
				f.Fatalf("seed %s v%d does not decode: %v", s.t, ver, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		// Decoding arbitrary bytes must never panic and must bound its
		// allocations by the payload size; errors are the expected outcome.
		var stream, seq uint64
		var decoded any
		for ver := 1; ver <= 2; ver++ {
			st, sq, m, err := ParsePayload(ver, MsgType(typ), payload)
			_, _, reused, rerr := parsePayload(ver, MsgType(typ), payload, &dirty[ver])
			_, _, again, _ := ParsePayload(ver, MsgType(typ), payload) // unequal to m when a NaN was decoded
			if (err == nil) != (rerr == nil) || reflect.DeepEqual(m, again) && !reflect.DeepEqual(m, reused) {
				t.Fatalf("%s v%d decodes to %+v (%v) into a connection's used struct, %+v (%v) into a fresh one", MsgType(typ), ver, reused, rerr, m, err)
			}
			if ver == 2 {
				if err != nil {
					return
				}
				stream, seq, decoded = st, sq, m
			}
		}
		// Whatever decoded must re-encode: the codec is closed over its own
		// output (re-encoding may differ byte-wise — map order — but must
		// not fail).
		if _, rerr := AppendPayload(nil, 2, MsgType(typ), stream, seq, decoded); rerr != nil {
			t.Fatalf("decoded %s does not re-encode: %v", MsgType(typ), rerr)
		}
	})
}

// TestCodecAllocsV2 pins the allocations of the v2 codec on the lock-step
// op round trip (SEND out, OP-RESULT back). Off a connection, ParsePayload's
// form, it is the count measured before the decode cursor was changed to
// record its first error: the two message structs, SEND's two strings and its
// boxed int value. On one, ReadFrame's form, the structs are the decoder's
// and both strings come out of its table: the boxed value is what is left.
func TestCodecAllocsV2(t *testing.T) {
	send := &Send{To: "buffer", Tag: "item", Val: 123456789}
	result := &OpResult{}
	buf := make([]byte, 0, 1024)
	var conn decoder
	for _, tc := range []struct {
		name string
		d    *decoder
		want float64
	}{{"fresh structs", nil, 5}, {"a connection's decoder", &conn, 1}} {
		got := testing.AllocsPerRun(1000, func() {
			b, _ := AppendPayload(buf[:0], 2, MsgSend, 7, 3, send)
			_, _, _, _ = parsePayload(2, MsgSend, b, tc.d)
			b, _ = AppendPayload(buf[:0], 2, MsgOpResult, 7, 3, result)
			_, _, _, _ = parsePayload(2, MsgOpResult, b, tc.d)
		})
		if got > tc.want {
			t.Errorf("v2 SEND + OP-RESULT codec round trip into %s allocates %v times, want <= %v", tc.name, got, tc.want)
		}
	}
}

// TestNamesInterned pins the decoder's table of identity strings: a
// connection that reads the same role and process names again hands out the
// strings it already built, and names it has never seen — however many, and
// however long — replace entries in a table that never grows.
func TestNamesInterned(t *testing.T) {
	var dec decoder
	names := &dec.names
	decode := func(e *Enroll) Enroll {
		t.Helper()
		b, err := AppendPayload(nil, 2, MsgEnroll, 1, 0, e)
		if err != nil {
			t.Fatal(err)
		}
		_, _, m, err := parsePayload(2, MsgEnroll, b, &dec)
		if err != nil {
			t.Fatal(err)
		}
		return *m.(*Enroll) // the struct is the decoder's: the next decode overwrites it
	}
	long := strings.Repeat("r", maxInterned+1)
	first := decode(&Enroll{PID: "R7", Role: "recipient[7]"})
	again := decode(&Enroll{PID: "R7", Role: "recipient[7]"})
	if unsafe.StringData(first.Role) != unsafe.StringData(again.Role) || unsafe.StringData(first.PID) != unsafe.StringData(again.PID) {
		t.Fatal("a name decoded twice on one connection was built twice")
	}
	if a, b := decode(&Enroll{Role: long}), decode(&Enroll{Role: long}); a.Role != long || unsafe.StringData(a.Role) == unsafe.StringData(b.Role) {
		t.Fatalf("a %d-byte name was interned (or mangled)", len(long))
	}
	for i := 0; i < 20*internSlots; i++ {
		name := fmt.Sprintf("ghost-%d", i)
		if got := decode(&Enroll{PID: name, Role: "r"}); got.PID != name || got.Role != "r" {
			t.Fatalf("decoded %q/%q, want %q/r", got.PID, got.Role, name)
		}
	}
	if len(*names) != internSlots {
		t.Fatalf("table holds %d slots after %d distinct names, want %d", len(*names), 20*internSlots, internSlots)
	}
}
