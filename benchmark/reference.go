package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// reference is the speed reference: a loop whose rate depends on the
// machine and on the Go runtime but on none of the repository's code. It is
// the two things every performance is made of — a goroutine handing a value
// to another over a channel, and a few bytes going round a loopback TCP
// connection — and it allocates nothing, so it leaves the heap counters of
// a traced run alone.
//
// The benchmark runs a short burst of it on either side of every slice of a
// phase and states that slice's times at the nominal speed: the processor
// of a shared host runs the same instructions a third faster or slower from
// one second to the next (its neighbours' use of the cache, the memory bus
// and the sibling hyperthread), and the reference slows with the workload.
// README.md has the measurements.
type reference struct {
	ping, pong chan int
	ln         net.Listener
	conn       net.Conn      // the calling side of the echo
	echoed     chan struct{} // closed when the echo goroutine has returned
	buf        [64]byte
	err        error // first failure; every later burst reports nominal speed
}

// Nominal round trips per second of the two halves: about what the sizing
// machine gave when its neighbours were quiet. They only fix the unit —
// "milliseconds at nominal speed" — and are the same for every commit.
const (
	nominalChanPerSec = 2.5e6
	nominalTCPPerSec  = 180e3
)

// burstDur is one burst, half of it on each half of the reference.
const burstDur = 16 * time.Millisecond

func newReference() (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	r := &reference{ping: make(chan int), pong: make(chan int), ln: ln, echoed: make(chan struct{})}
	go func() {
		for v := range r.ping {
			r.pong <- v + 1
		}
	}()
	go func() {
		defer close(r.echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var buf [64]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	if r.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		r.close()
		return nil, fmt.Errorf("reference: %w", err)
	}
	return r, nil
}

// close stops both goroutines and waits for the echo.
func (r *reference) close() {
	close(r.ping)
	r.ln.Close()
	if r.conn != nil {
		r.conn.Close()
	}
	<-r.echoed
}

// speed runs one burst and returns the machine's speed just now relative to
// nominal: the geometric mean of the two halves' rates over their nominal
// rates.
func (r *reference) speed() float64 {
	if r.err != nil {
		return 1
	}
	start, n := time.Now(), 0
	for time.Since(start) < burstDur/2 {
		for i := 0; i < 100; i++ {
			r.ping <- i
			<-r.pong
		}
		n += 100
	}
	chanRate := float64(n) / time.Since(start).Seconds()

	start, n = time.Now(), 0
	for time.Since(start) < burstDur/2 {
		for i := 0; i < 10; i++ {
			if _, err := r.conn.Write(r.buf[:]); err != nil {
				r.err = fmt.Errorf("reference echo: %w", err)
				return 1
			}
			if _, err := io.ReadFull(r.conn, r.buf[:]); err != nil {
				r.err = fmt.Errorf("reference echo: %w", err)
				return 1
			}
		}
		n += 10
	}
	tcpRate := float64(n) / time.Since(start).Seconds()
	return math.Sqrt(chanRate / nominalChanPerSec * tcpRate / nominalTCPPerSec)
}
