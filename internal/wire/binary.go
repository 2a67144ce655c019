// Binary payload codec for protocol version 2 (SCRW v2).
//
// v1 encodes every payload as JSON; profiling the remote-enrollment hot
// path (BENCH_E7) showed encoding/json dominating per-frame cost. v2 keeps
// the outer framing (uint32 length + type byte, see wire.go) and replaces
// the payload with a compact hand-rolled binary encoding:
//
//	uvarint  stream ID   (multiplexing: which enrollment this frame belongs to)
//	uvarint  sequence ID (op pipelining: echoes the request on its OP-RESULT;
//	                      0 on frames that are not operations)
//	...      message body, encoded field-by-field (see each appendBody case)
//
// Scalars are varints (zigzag for signed), strings and byte slices are
// length-prefixed, and dynamic values carry a one-byte type tag. Types the
// value codec does not model natively fall back to an embedded JSON blob,
// so v2 is value-complete with respect to v1. Unlike v1 — where JSON
// coerces every number to float64 — v2 preserves integer-ness across the
// wire (ints arrive as int, not float64).
//
// Decoding is total: a malformed payload of any length yields an error,
// never a panic or an unbounded allocation (every length read is checked
// against the bytes actually remaining, and value nesting is depth-capped).
// FuzzParsePayload holds the codec to that contract.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
)

// MaxVersion is the newest protocol version this package speaks. The
// handshake negotiates downward from it, to Version (=1) at worst.
const MaxVersion = 2

// Decode-side error sentinels. Kept as values so the hot path never
// allocates an error message for routine truncation checks.
var (
	errTruncated = errors.New("wire: truncated v2 payload")
	errOversized = errors.New("wire: v2 length field exceeds payload")
	errBadTag    = errors.New("wire: unknown v2 value tag")
	errTooDeep   = errors.New("wire: v2 value nesting too deep")
	errTrailing  = errors.New("wire: trailing bytes after v2 payload")
)

// maxValueDepth bounds the nesting of the dynamic value codec, so a
// malicious frame cannot drive the decoder into unbounded recursion.
const maxValueDepth = 64

// Dynamic value type tags.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt   // zigzag varint; decodes as int
	vUint  // uvarint; only for uint64 values above MaxInt64
	vFloat // 8-byte IEEE 754, little endian
	vString
	vBytes
	vList // uvarint count + values
	vMap  // uvarint count + (string key, value) pairs
	vJSON // length-prefixed JSON blob (fallback for unmodeled types)
)

// ---------------------------------------------------------------------------
// Append (encode) side
// ---------------------------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendStrings is the encode side of cursor.strings: a count, then each
// string.
func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if v {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case int64:
		return binary.AppendVarint(append(b, vInt), v), nil
	case int8, int16, int32:
		return binary.AppendVarint(append(b, vInt), reflect.ValueOf(v).Int()), nil
	case uint, uint8, uint16, uint32, uint64:
		return appendUnsigned(b, reflect.ValueOf(v).Uint()), nil
	case float32:
		return binary.LittleEndian.AppendUint64(append(b, vFloat), math.Float64bits(float64(v))), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, vFloat), math.Float64bits(v)), nil
	case string:
		return appendString(append(b, vString), v), nil
	case []byte:
		return appendBytes(append(b, vBytes), v), nil
	case []any:
		return appendValues(append(b, vList), v)
	case map[string]any:
		b = binary.AppendUvarint(append(b, vMap), uint64(len(v)))
		var err error
		for k, e := range v {
			b = appendString(b, k)
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		// Anything richer rides an embedded JSON blob, exactly as the whole
		// value would have in v1.
		blob, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal value: %w", err)
		}
		return appendBytes(append(b, vJSON), blob), nil
	}
}

func appendUnsigned(b []byte, v uint64) []byte {
	if v <= math.MaxInt64 {
		return binary.AppendVarint(append(b, vInt), int64(v))
	}
	return binary.AppendUvarint(append(b, vUint), v)
}

func appendValues(b []byte, vs []any) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendErrInfo(b []byte, e *ErrInfo) []byte {
	if e == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	code := byte(0)
	for _, c := range errCodes {
		if c.code == e.Code {
			code = c.b
		}
	}
	if b = append(b, code); code == 0 {
		b = appendString(b, e.Code)
	}
	b = appendString(b, e.Msg)
	b = appendString(b, e.Script)
	b = binary.AppendUvarint(b, uint64(e.Performance))
	b = appendString(b, e.Culprit)
	b = appendString(b, e.Reason)
	b = appendString(b, e.Role)
	b = binary.AppendUvarint(b, uint64(e.RetryAfterMS))
	return b
}

// appendBody appends m's v2 body (everything after the stream/seq envelope).
// m must be the pointer form ParsePayload returns; the handshake messages
// (HELLO, HELLO-ACK, OVERLOADED) are exchanged before a version is agreed
// and have no v2 body.
func appendBody(b []byte, t MsgType, m any) ([]byte, error) {
	switch m := m.(type) {
	case *Enroll:
		b = appendString(b, m.PID)
		b = appendString(b, m.Role)
		b = binary.AppendUvarint(b, uint64(m.DeadlineMS))
		b, err := appendValues(b, m.Args)
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(m.With)))
		for role, pids := range m.With {
			b = appendStrings(appendString(b, role), pids)
		}
		// TraceID rides as an optional trailing field: appended only when
		// set, parsed only when bytes remain. An empty ID keeps the original
		// frame layout byte-for-byte, so pre-tracing peers and the fuzz
		// corpus stay compatible.
		if m.TraceID != "" {
			b = appendString(b, m.TraceID)
		}
		return b, nil
	case *OfferAck:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Role)
		// TraceID is an optional trailing field (see *Enroll).
		if m.TraceID != "" {
			b = appendString(b, m.TraceID)
		}
		return b, nil
	case *Send:
		b = appendString(b, m.To)
		b = appendString(b, m.Tag)
		return appendValue(b, m.Val)
	case *SendAll:
		return appendValue(appendStrings(b, m.Tos), m.Val)
	case *Recv:
		b = appendString(b, m.From)
		return appendString(b, m.Tag), nil
	case *Select:
		b = binary.AppendUvarint(b, uint64(len(m.Branches)))
		var err error
		for _, br := range m.Branches {
			var flags byte
			if br.Send {
				flags |= 1
			}
			if br.AnyPeer {
				flags |= 2
			}
			b = append(b, flags)
			b = appendString(b, br.Peer)
			b = appendString(b, br.Tag)
			b = binary.AppendUvarint(b, uint64(br.Index))
			if br.Send {
				if b, err = appendValue(b, br.Val); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case *Query:
		b = appendString(b, m.Kind)
		b = appendString(b, m.Role)
		return appendString(b, m.Name), nil
	case *BodyDone:
		b, err := appendValues(b, m.Results)
		if err != nil {
			return nil, err
		}
		return appendErrInfo(b, m.Err), nil
	case *OpResult:
		b, err := appendValue(b, m.Val)
		if err != nil {
			return nil, err
		}
		b = appendString(b, m.Peer)
		b = appendString(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Index))
		b = binary.AppendUvarint(b, uint64(m.N))
		var flag byte
		if m.Bool {
			flag = 1
		}
		return appendErrInfo(append(b, flag), m.Err), nil
	case *Complete:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Role)
		b, err := appendValues(b, m.Values)
		if err != nil {
			return nil, err
		}
		return appendErrInfo(b, m.Err), nil
	case *Abort:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Culprit)
		return appendString(b, m.Reason), nil
	case *Drain, *Heartbeat, *Cancel, *Bye:
		return b, nil
	case *Resume:
		b = appendString(b, m.Token)
		return binary.AppendUvarint(b, m.RecvCount), nil
	case *ResumeAck:
		return binary.AppendUvarint(b, m.RecvCount), nil
	case *Ack:
		return binary.AppendUvarint(b, m.Count), nil
	case *ProtoError:
		return appendString(b, m.Msg), nil
	default:
		return nil, fmt.Errorf("wire: %s as %T has no v2 encoding", t, m)
	}
}

// AppendPayload appends one frame payload (the bytes after the type byte)
// for protocol version ver: JSON for v1 (stream and seq must be zero — v1
// has neither), the binary envelope + body for v2. m is a pointer to the
// message struct, the form ParsePayload returns. Appending to a reused
// buffer keeps the encode path allocation-free at steady state; Conn
// appends to the free space of its write buffer.
func AppendPayload(dst []byte, ver int, t MsgType, stream, seq uint64, m any) ([]byte, error) {
	if ver < 2 {
		if stream != 0 || seq != 0 {
			return nil, fmt.Errorf("wire: protocol v%d has no stream/seq envelope", ver)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal %s: %w", t, err)
		}
		return append(dst, blob...), nil
	}
	dst = binary.AppendUvarint(dst, stream)
	dst = binary.AppendUvarint(dst, seq)
	return appendBody(dst, t, m)
}

// ---------------------------------------------------------------------------
// Parse (decode) side
// ---------------------------------------------------------------------------

// cursor walks a payload. Every read checks the remaining length, so
// decoding malformed input fails with an error instead of panicking. The
// first failure is recorded in err and empties the cursor: every later read
// returns a zero value and every later count is bounded to 0, so a decoder
// reads a whole message straight through and checks err once at the end.
type cursor struct {
	b     []byte
	off   int
	err   error
	names *internTable // nil: every string is a fresh copy
}

// decoder is what one connection's reader decodes with and into: its table
// of identity strings, and one message struct per type, made on the type's
// first frame and filled again by every later one (see Conn.ReadFrame).
type decoder struct {
	names internTable
	msgs  [len(msgTable)]any
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b, c.off = nil, 0
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail(errTruncated)
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail(errTruncated)
		return 0
	}
	c.off += n
	return v
}

// count reads a uvarint element count and bounds it by the bytes remaining
// (each encoded element costs at least minBytes), so a corrupt count cannot
// force an oversized allocation.
func (c *cursor) count(minBytes int) int {
	v := c.uvarint()
	if v > uint64(c.remaining()/minBytes) {
		c.fail(errOversized)
		return 0
	}
	return int(v)
}

// int63 reads a uvarint field that must fit a non-negative int64.
func (c *cursor) int63() int64 {
	v := c.uvarint()
	if v > math.MaxInt64 {
		c.fail(errOversized)
		return 0
	}
	return int64(v)
}

func (c *cursor) byteField() byte {
	if c.remaining() < 1 {
		c.fail(errTruncated)
		return 0
	}
	b := c.b[c.off]
	c.off++
	return b
}

func (c *cursor) take(n int) []byte {
	if n < 0 || c.remaining() < n {
		c.fail(errOversized)
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// lenPrefixed reads a uvarint length and that many bytes, aliasing the
// payload: callers copy out (the buffer is reused for the next frame).
func (c *cursor) lenPrefixed() []byte {
	n := c.uvarint()
	if n > uint64(c.remaining()) {
		c.fail(errOversized)
		return nil
	}
	return c.take(int(n))
}

func (c *cursor) string() string { return string(c.lenPrefixed()) }

// name reads a string that names a role, a process or a message tag. A
// connection sees the same few names on every enrollment, so its decoder
// interns them.
func (c *cursor) name() string {
	b := c.lenPrefixed()
	if c.names == nil || len(b) == 0 || len(b) > maxInterned {
		return string(b)
	}
	return c.names.intern(b)
}

// internTable is one connection's table of decoded identity strings: open
// addressing over a fixed number of slots, each holding a string of at most
// maxInterned bytes, so what a peer sends cannot grow it. A name that finds
// its probe sequence full takes over its home slot.
type internTable []string

const (
	internSlots  = 256
	internProbes = 4
	maxInterned  = 32
)

var internSeed = maphash.MakeSeed()

func (t *internTable) intern(b []byte) string {
	if *t == nil {
		*t = make([]string, internSlots)
	}
	h := maphash.Bytes(internSeed, b)
	for i := uint64(0); i < internProbes; i++ {
		slot := &(*t)[(h+i)%internSlots]
		if *slot == "" {
			*slot = string(b)
		}
		if *slot == string(b) {
			return *slot
		}
	}
	s := string(b)
	(*t)[h%internSlots] = s
	return s
}

func (c *cursor) value(depth int) any {
	if depth > maxValueDepth {
		c.fail(errTooDeep)
		return nil
	}
	switch c.byteField() {
	case vNil:
		return nil
	case vFalse:
		return false
	case vTrue:
		return true
	case vInt:
		return int(c.varint())
	case vUint:
		return c.uvarint()
	case vFloat:
		if p := c.take(8); p != nil {
			return math.Float64frombits(binary.LittleEndian.Uint64(p))
		}
		return nil
	case vString:
		return c.string()
	case vBytes:
		return append([]byte{}, c.lenPrefixed()...)
	case vList:
		n := c.count(1)
		out := make([]any, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			out = append(out, c.value(depth+1))
		}
		return out
	case vMap:
		n := c.count(2)
		out := make(map[string]any, n)
		for i := 0; i < n && c.err == nil; i++ {
			k := c.string()
			out[k] = c.value(depth + 1)
		}
		return out
	case vJSON:
		var v any
		if p := c.lenPrefixed(); c.err == nil {
			if err := json.Unmarshal(p, &v); err != nil {
				c.fail(fmt.Errorf("wire: embedded JSON value: %w", err))
			}
		}
		return v
	default:
		c.fail(errBadTag)
		return nil
	}
}

func (c *cursor) values() []any {
	n := c.count(1)
	if n == 0 {
		return nil
	}
	out := make([]any, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.value(0))
	}
	return out
}

func (c *cursor) strings() []string {
	n := c.count(1)
	out := make([]string, 0, n)
	for i := 0; i < n && c.err == nil; i++ {
		out = append(out, c.name())
	}
	return out
}

func (c *cursor) errInfo() *ErrInfo {
	if c.byteField() == 0 {
		return nil
	}
	e := &ErrInfo{}
	e.Code = CodeOther // what a byte this decoder does not know stands for
	if code := c.byteField(); code == 0 {
		e.Code = c.string()
	} else {
		for _, row := range errCodes {
			if row.b == code {
				e.Code = row.code
			}
		}
	}
	e.Msg = c.string()
	e.Script = c.string()
	e.Performance = int(c.int63())
	e.Culprit = c.string()
	e.Reason = c.string()
	e.Role = c.string()
	e.RetryAfterMS = c.int63()
	return e
}

// ParsePayload decodes one frame payload for protocol version ver. For v1
// it JSON-unmarshals into the message struct for t (stream and seq are
// reported as 0); for v2 it decodes the binary envelope and body. The
// returned message is a pointer to a fresh concrete struct for t (*Send,
// *OpResult, ... — see msgTable), fully copied out of payload — the caller
// may reuse the payload buffer immediately, and keep the message.
func ParsePayload(ver int, t MsgType, payload []byte) (stream, seq uint64, m any, err error) {
	return parsePayload(ver, t, payload, nil)
}

// parsePayload is ParsePayload on behalf of a connection: with d non-nil the
// message is d's struct for t, overwritten, and its names are interned.
func parsePayload(ver int, t MsgType, payload []byte, d *decoder) (stream, seq uint64, m any, err error) {
	// CANCEL exists from v2 on: a v1 client withdraws by severing its
	// connection, and a v1 host must keep treating the frame as unknown.
	if int(t) >= len(msgTable) || msgTable[t].new == nil || (ver < 2 && t == MsgCancel) {
		return 0, 0, nil, fmt.Errorf("wire: unknown message type %s", t)
	}
	c := cursor{b: payload}
	if d == nil {
		m = msgTable[t].new()
	} else {
		if d.msgs[t] == nil {
			d.msgs[t] = msgTable[t].new()
		}
		m, c.names = d.msgs[t], &d.names
	}
	if ver < 2 {
		// Unmarshal leaves what the JSON does not mention, so start from zero.
		reflect.ValueOf(m).Elem().SetZero()
		if err := json.Unmarshal(payload, m); err != nil {
			return 0, 0, nil, err
		}
		return 0, 0, m, nil
	}
	stream, seq = c.uvarint(), c.uvarint()
	c.body(t, m)
	if c.err == nil && c.remaining() != 0 {
		c.err = errTrailing
	}
	if c.err != nil {
		return 0, 0, nil, c.err
	}
	return stream, seq, m, nil
}

// body fills m, the struct for t, from the v2 body at the cursor — field by
// field, the mirror of appendBody. m may hold an earlier frame: every field
// is assigned, the optional ones reset first.
func (c *cursor) body(t MsgType, m any) {
	switch m := m.(type) {
	case *Enroll:
		m.PID = c.name()
		m.Role = c.name()
		m.DeadlineMS = c.int63()
		m.Args, m.With, m.TraceID = c.values(), nil, ""
		if n := c.count(2); n > 0 {
			m.With = make(map[string][]string, n)
			for i := 0; i < n && c.err == nil; i++ {
				role := c.name()
				m.With[role] = c.strings()
			}
		}
		if c.remaining() > 0 { // optional trailing trace ID
			m.TraceID = c.string()
		}
	case *OfferAck:
		m.Performance = int(c.int63())
		m.Role, m.TraceID = c.name(), ""
		if c.remaining() > 0 { // optional trailing trace ID
			m.TraceID = c.string()
		}
	case *Send:
		m.To = c.name()
		m.Tag = c.name()
		m.Val = c.value(0)
	case *SendAll:
		m.Tos = c.strings()
		m.Val = c.value(0)
	case *Recv:
		m.From = c.name()
		m.Tag = c.name()
	case *Select:
		n := c.count(4)
		m.Branches = make([]SelectBranch, 0, n)
		for i := 0; i < n && c.err == nil; i++ {
			flags := c.byteField()
			br := SelectBranch{Send: flags&1 != 0, AnyPeer: flags&2 != 0}
			br.Peer = c.name()
			br.Tag = c.name()
			br.Index = int(c.int63())
			if br.Send {
				br.Val = c.value(0)
			}
			m.Branches = append(m.Branches, br)
		}
	case *Query:
		m.Kind = c.name()
		m.Role = c.name()
		m.Name = c.name()
	case *BodyDone:
		m.Results = c.values()
		m.Err = c.errInfo()
	case *OpResult:
		m.Val = c.value(0)
		m.Peer = c.name()
		m.Tag = c.name()
		m.Index = int(c.int63())
		m.N = int(c.int63())
		m.Bool = c.byteField() != 0
		m.Err = c.errInfo()
	case *Complete:
		m.Performance = int(c.int63())
		m.Role = c.name()
		m.Values = c.values()
		m.Err = c.errInfo()
	case *Abort:
		m.Performance = int(c.int63())
		m.Culprit = c.name()
		m.Reason = c.string()
	case *Drain, *Heartbeat, *Cancel, *Bye:
	case *Resume:
		m.Token = c.string()
		m.RecvCount = c.uvarint()
	case *ResumeAck:
		m.RecvCount = c.uvarint()
	case *Ack:
		m.Count = c.uvarint()
	case *ProtoError:
		m.Msg = c.string()
	default:
		c.fail(fmt.Errorf("wire: %s has no v2 encoding", t))
	}
}
