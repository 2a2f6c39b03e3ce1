package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"itv/internal/wire"
)

func TestMemnetRoundTrip(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.5")

	ln, addr, err := server.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if _, err := c.Write([]byte("pong!")); err != nil {
			t.Errorf("write: %v", err)
		}
	}()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong!" {
		t.Fatalf("got %q", buf)
	}
	wg.Wait()
}

func TestMemnetCallerAddressVisible(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	settop := nw.Host("10.3.0.17")

	ln, addr, _ := server.Listen()
	defer ln.Close()

	got := make(chan string, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		got <- c.RemoteAddr().String()
	}()

	c, err := settop.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := <-got
	host, _, err := net.SplitHostPort(remote)
	if err != nil {
		t.Fatal(err)
	}
	if host != "10.3.0.17" {
		t.Fatalf("server saw caller %q, want settop IP 10.3.0.17", host)
	}
}

func TestMemnetDialRefusedNoListener(t *testing.T) {
	nw := NewNetwork()
	client := nw.Host("10.1.0.1")
	if _, err := client.Dial("192.168.0.9:1024"); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestMemnetCutSeversAndRefuses(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	defer ln.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted

	nw.Cut("192.168.0.1")

	// Existing connection severed: reads fail promptly.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read on severed conn succeeded")
	}
	sc.Close()

	// New dials refused.
	if _, err := client.Dial(addr); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial to cut host err = %v, want ErrUnreachable", err)
	}

	// Dials from a cut host also fail.
	if _, err := server.Dial(addr); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dial from cut host err = %v, want ErrUnreachable", err)
	}

	nw.Restore("192.168.0.1")
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial after restore: %v", err)
	}
	c2.Close()
}

func TestMemnetListenerClose(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	ln.Close()
	if _, err := client.Dial(addr); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial to closed listener err = %v, want ErrRefused", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("accept on closed listener err = %v, want ErrClosed", err)
	}
	// Double close is safe.
	ln.Close()
}

func TestMemnetDistinctPorts(t *testing.T) {
	nw := NewNetwork()
	h := nw.Host("192.168.0.1")
	_, a1, _ := h.Listen()
	_, a2, _ := h.Listen()
	if a1 == a2 {
		t.Fatalf("duplicate listener addresses %q", a1)
	}
}

func TestMemnetStats(t *testing.T) {
	nw := NewNetwork()
	server := nw.Host("192.168.0.1")
	client := nw.Host("10.1.0.1")
	ln, addr, _ := server.Listen()
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			io.Copy(io.Discard, c)
		}
	}()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(make([]byte, 100))
	c.Close()
	if nw.ConnsMade() != 1 {
		t.Fatalf("ConnsMade = %d, want 1", nw.ConnsMade())
	}
	if nw.BytesSent() < 100 {
		t.Fatalf("BytesSent = %d, want >= 100", nw.BytesSent())
	}
}

// linkPair dials one memnet connection and returns both ends.
func linkPair(t *testing.T) (nw *Network, client, server net.Conn) {
	t.Helper()
	nw = NewNetwork()
	ln, addr, err := nw.Host("192.168.0.1").Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	client, err = nw.Host("10.1.0.1").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return nw, client, server
}

// A write within the window is accepted at once: the sender does not wait
// for the receiver's goroutine.
func TestLinkSmallWriteReturnsBeforeRead(t *testing.T) {
	_, c, s := linkPair(t)
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Write([]byte("hello")); n != 5 || err != nil {
		t.Fatalf("write = %d, %v; want 5, nil with no reader", n, err)
	}
	buf := make([]byte, 16)
	if n, err := s.Read(buf); n != 5 || err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
}

// A writer past the window blocks until the reader drains.
func TestLinkWindowFullBlocksWriter(t *testing.T) {
	_, c, s := linkPair(t)
	if _, err := c.Write(make([]byte, window)); err != nil {
		t.Fatal(err)
	}
	c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.Write([]byte{1}); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("write into a full window = %d, %v; want it to block until the deadline", n, err)
	}
	c.SetWriteDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte{2})
		done <- err
	}()
	got := make([]byte, window+1)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked write after drain: %v", err)
	}
	if got[window] != 2 {
		t.Fatalf("last byte = %d, want the blocked write's 2", got[window])
	}
}

// A write larger than the window is handed over in place: it returns only
// once the reader has taken it, and arrives intact across short reads.
func TestLinkLargeWriteIntact(t *testing.T) {
	_, c, s := linkPair(t)
	big := make([]byte, 3*window+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.Write(big); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("unread large write = %d, %v; want it to wait for the reader", n, err)
	}
	c.SetWriteDeadline(time.Time{})

	done := make(chan error, 1)
	go func() {
		_, err := c.Write(big)
		done <- err
	}()
	var got []byte
	buf := make([]byte, 1000)
	for len(got) < len(big) {
		n, err := s.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("large write corrupted in transit")
	}
}

// Concurrent writers never interleave their frames, small or large.
func TestLinkConcurrentWritersDoNotInterleave(t *testing.T) {
	_, c, s := linkPair(t)
	const writers, frames = 6, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				size := 1 + (w*frames+i)*97%(window/4)
				if i%10 == 0 {
					size = window + 1 + i // over the window: handed over in place
				}
				if wire.WriteFrame(c, bytes.Repeat([]byte{byte(w)}, size)) != nil {
					return // the reader gave up; the frame counts show it
				}
			}
		}(w)
	}
	counts := make([]int, writers)
	var bad error
	s.SetReadDeadline(time.Now().Add(10 * time.Second)) // a garbled length would wait forever
	for i := 0; i < writers*frames && bad == nil; i++ {
		p, err := wire.ReadFrame(s)
		switch {
		case err != nil:
			bad = err
		case int(p[0]) >= writers || !bytes.Equal(p, bytes.Repeat(p[:1], len(p))):
			bad = fmt.Errorf("frame %d interleaved: starts with writer %d", i, p[0])
		default:
			counts[p[0]]++
		}
	}
	s.Close() // releases any writer still waiting on the window
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	for w, n := range counts {
		if n != frames {
			t.Fatalf("writer %d: %d frames arrived, want %d", w, n, frames)
		}
	}
}

// After one end closes, the peer reads every byte already accepted, then
// io.EOF; writes on either end fail.
func TestLinkCloseDeliversThenEOF(t *testing.T) {
	_, c, s := linkPair(t)
	if _, err := c.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "last words" {
		t.Fatalf("read after peer close = %q, %v; want the accepted bytes, then EOF", got, err)
	}
	if _, err := s.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on a closed conn succeeded")
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on a closed conn succeeded")
	}
}

// Cut drops the bytes undelivered in both directions and fails both ends.
func TestLinkCutDropsUndelivered(t *testing.T) {
	nw, c, s := linkPair(t)
	if _, err := c.Write([]byte("to server")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("to client")); err != nil {
		t.Fatal(err)
	}
	nw.Cut("192.168.0.1")
	for _, end := range []net.Conn{c, s} {
		if n, err := end.Read(make([]byte, 64)); n != 0 || !errors.Is(err, ErrReset) {
			t.Fatalf("read after cut = %d, %v; want 0, ErrReset", n, err)
		}
		if _, err := end.Write([]byte("x")); !errors.Is(err, ErrReset) {
			t.Fatalf("write after cut = %v, want ErrReset", err)
		}
	}
}

// Read deadlines fire, also one set while the read is already blocked, and
// clearing the deadline lets reads proceed.
func TestLinkReadDeadline(t *testing.T) {
	_, c, s := linkPair(t)
	s.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	var ne net.Error
	if _, err := s.Read(make([]byte, 1)); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("read past deadline = %v, want a timeout", err)
	}
	s.SetReadDeadline(time.Time{})
	blocked := make(chan error, 1)
	go func() {
		_, err := s.Read(make([]byte, 1))
		blocked <- err
	}()
	s.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	if err := <-blocked; !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blocked read after SetReadDeadline = %v, want ErrDeadlineExceeded", err)
	}
	s.SetReadDeadline(time.Time{})
	if _, err := c.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(make([]byte, 1)); err != nil {
		t.Fatalf("read with deadline cleared: %v", err)
	}
}

// A chain of hand-offs over links does not keep the processor from other
// runnable goroutines: with one processor, two goroutines bouncing a byte
// across a link, and a third made runnable behind them, the third runs
// within a few round trips instead of after a timer or a preemption.
func TestLinkHandOffChainYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	_, c, s := linkPair(t)
	var trips atomic.Int64
	var stop atomic.Bool
	go func() { // echo: every byte back
		b := make([]byte, 1)
		for {
			if _, err := s.Read(b); err != nil {
				return
			}
			if _, err := s.Write(b); err != nil {
				return
			}
		}
	}()
	go func() { // pinger: counts round trips until stopped
		b := make([]byte, 1)
		for !stop.Load() {
			if _, err := c.Write(b); err != nil {
				return
			}
			if _, err := c.Read(b); err != nil {
				return
			}
			trips.Add(1)
		}
		c.Close()
	}()
	defer stop.Store(true)
	for trips.Load() < 100 {
		time.Sleep(time.Millisecond)
	}

	// Two goroutines made runnable back to back: the second takes the
	// first's place as the next to run, which puts the first at the back of
	// the run queue, behind the chain.
	from := trips.Load()
	waited := make(chan int64, 1)
	go func() { waited <- trips.Load() - from }()
	go func() {}()
	if n := <-waited; n > 50 {
		t.Fatalf("a runnable goroutine waited %d round trips of a hand-off chain, want a few", n)
	}
}

// A small frame's round trip allocates nothing once the link is warm.
func TestLinkRoundTripAllocs(t *testing.T) {
	_, c, s := linkPair(t)
	msg := make([]byte, 20)
	buf := make([]byte, 20)
	allocs := testing.AllocsPerRun(100, func() {
		c.Write(msg)
		io.ReadFull(s, buf)
		s.Write(buf)
		io.ReadFull(c, buf)
	})
	if allocs != 0 {
		t.Fatalf("round trip allocates %.1f times, want 0", allocs)
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	tr := TCP()
	ln, addr, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hi" {
		t.Fatalf("echo = %q", buf)
	}
}
