package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/wire"
)

// heldConn is a host-side socket whose arrived bytes the reader has not got
// to — what a reader goroutine the scheduler has not run since they arrived
// looks like from outside. Once hold is set, a Read delivers nothing until
// the host touches the connection again (a read deadline once watch is set,
// or Close); then reads go through to the socket, which has kept the bytes.
type heldConn struct {
	net.Conn
	hold, watch atomic.Bool
	held        chan struct{} // closed when a Read is first held back
	touched     chan struct{}
	heldOnce    sync.Once
	touchOnce   sync.Once
}

func (c *heldConn) Read(p []byte) (int, error) {
	if c.hold.Load() {
		c.heldOnce.Do(func() { close(c.held) })
		<-c.touched
	}
	return c.Conn.Read(p)
}

func (c *heldConn) SetReadDeadline(t time.Time) error {
	if c.watch.Load() {
		c.touchOnce.Do(func() { close(c.touched) })
	}
	return c.Conn.SetReadDeadline(t)
}

func (c *heldConn) Close() error {
	c.touchOnce.Do(func() { close(c.touched) })
	return c.Conn.Close()
}

// heldListener hands every accepted connection to the host as a heldConn and
// to the test on conns.
type heldListener struct {
	net.Listener
	conns chan *heldConn
}

func (l heldListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := &heldConn{Conn: nc, held: make(chan struct{}), touched: make(chan struct{})}
	l.conns <- hc
	return hc, nil
}

// TestDrainAnswersEnrollBeforeClose: an ENROLL that has reached a draining
// host — it sits in the socket of an idle connection, the reader has not run
// since — is answered DRAIN before the host closes that connection. Closing
// first discards it, and the enroller reads `connection lost: EOF` where it
// should read ErrDraining (ROADMAP cut/RESUME item 4, the host's half).
func TestDrainAnswersEnrollBeforeClose(t *testing.T) {
	for _, proto := range []int{1, 2} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			in := core.NewInstance(pairScript("lastcall", func(core.Ctx) error { return nil }))
			defer in.Close()
			h := NewHost(in, HostConfig{})
			if err := h.Listen("127.0.0.1:0"); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			conns := make(chan *heldConn, 1)
			h.mu.Lock()
			h.ln = heldListener{h.ln, conns}
			h.mu.Unlock()
			go h.Serve()
			defer h.Close()

			b := dialRawClient(t, h.Addr().String(), "lastcall", proto)
			hc := <-conns
			// The reader is in, or on its way to, its wait for the first frame:
			// a heartbeat ends that wait, the next one is held back.
			hc.hold.Store(true)
			b.write(wire.MsgHeartbeat, 0, 0, &wire.Heartbeat{})
			<-hc.held
			hc.watch.Store(true)
			b.write(wire.MsgEnroll, 1, 0, &wire.Enroll{PID: "P", Role: "b"})

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drained := make(chan error, 1)
			go func() { drained <- h.Drain(ctx) }()

			typ, _, _, _, err := b.c.ReadFrame()
			if err != nil || typ != wire.MsgDrain {
				t.Fatalf("the enroller read %s, %v; want DRAIN before the connection closes", typ, err)
			}
			if _, _, _, _, err := b.c.ReadFrame(); err == nil {
				t.Fatal("the connection outlived the drain")
			}
			if err := <-drained; err != nil {
				t.Fatalf("Drain: %v", err)
			}
		})
	}
}
