package transport

import (
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// window bounds the bytes one direction of a memnet link holds accepted but
// undelivered, the way a socket's send buffer does on a real network.  It
// is a property of the simulated link, not a tuning knob.
const window = 64 << 10

// yieldEvery is how many hand-offs to a parked reader a link's writer makes
// per yield of its processor (see half.write).
const yieldEvery = 2

// half is one direction of a memnet link: the writing end appends to a
// byte queue and the reading end drains it.  A write of at most window
// bytes is copied into the queue and returns at once, blocking only while
// the window is full.  A larger write is handed to the reader in place and
// returns once the reader has drained it, so bulk frames cost no extra copy
// and no window-sized buffer.  Whether a write is queued or handed over
// depends only on its size.
//
// Every copy happens under mu, so a writer that returns early (closed,
// deadline) never races the reader over its slice.  Deadlines are checked
// only where an operation would block: they fail it instead of blocking.
//
// A reader woken by a write runs next on the writer's processor and takes
// over the rest of its time slice.  When every hop of a call chain is such
// a hand-off, the chain never gives the processor up, and any other
// goroutine queued there waits until a timer fires or the scheduler
// preempts the chain, up to 10 ms later.  So a writer that woke a parked
// reader yields its processor on every yieldEvery-th such hand-off, and the
// goroutines queued behind a chain run within a few hops.
type half struct {
	wmu      sync.Mutex // serializes writes: frames never interleave
	handoffs int        // small writes that woke a parked reader; under wmu

	mu     sync.Mutex
	buf    []byte // queued bytes are buf[off:]; grows on demand up to window
	off    int
	big    []byte // the undelivered rest of an over-window write
	parked bool   // a reader is waiting for bytes
	eof    bool   // writing end closed: the reader drains the queue, then io.EOF
	err    error  // reading end closed or link cut: queue dropped, both ends fail

	// One-slot wake-ups.  A stale token only costs the waiter a recheck.
	readable chan struct{}
	writable chan struct{}

	rdl, wdl deadline // the reading end's read and the writing end's write deadline
}

func newHalf() *half {
	return &half{
		readable: make(chan struct{}, 1),
		writable: make(chan struct{}, 1),
		rdl:      newDeadline(),
		wdl:      newDeadline(),
	}
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// writeErr reports why the writing end cannot write, if it cannot; h.mu
// must be held.
func (h *half) writeErr() error {
	if h.err != nil {
		return h.err
	}
	if h.eof {
		return io.ErrClosedPipe
	}
	return nil
}

func (h *half) write(b []byte) (int, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	if len(b) > window {
		return h.handOver(b)
	}
	h.mu.Lock()
	for {
		if err := h.writeErr(); err != nil {
			h.mu.Unlock()
			return 0, err
		}
		if len(h.buf)-h.off+len(b) <= window {
			if h.off > 0 && len(h.buf)+len(b) > cap(h.buf) {
				h.buf = h.buf[:copy(h.buf, h.buf[h.off:])]
				h.off = 0
			}
			h.buf = append(h.buf, b...)
			handoff := h.parked
			h.mu.Unlock()
			wake(h.readable)
			if handoff {
				if h.handoffs++; h.handoffs%yieldEvery == 0 {
					runtime.Gosched()
				}
			}
			return len(b), nil
		}
		h.mu.Unlock()
		select {
		case <-h.writable:
		case <-h.wdl.wait():
			return 0, os.ErrDeadlineExceeded
		}
		h.mu.Lock()
	}
}

// handOver lends b to the reader and waits until it has all been read.
func (h *half) handOver(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.big = b
	wake(h.readable)
	for len(h.big) > 0 {
		err := h.writeErr()
		if err == nil {
			h.mu.Unlock()
			select {
			case <-h.writable:
			case <-h.wdl.wait():
				err = os.ErrDeadlineExceeded
			}
			h.mu.Lock()
		}
		if err != nil {
			n := len(b) - len(h.big)
			h.big = nil
			return n, err
		}
	}
	h.big = nil
	return len(b), nil
}

func (h *half) read(p []byte) (int, error) {
	h.mu.Lock()
	for {
		if h.err != nil {
			h.mu.Unlock()
			return 0, h.err
		}
		n := copy(p, h.buf[h.off:])
		h.off += n
		if h.off == len(h.buf) {
			h.buf, h.off = h.buf[:0], 0
			if len(p) > n && len(h.big) > 0 {
				m := copy(p[n:], h.big)
				h.big = h.big[m:]
				n += m
			}
		}
		if n > 0 || len(p) == 0 {
			more := h.off < len(h.buf) || len(h.big) > 0
			h.mu.Unlock()
			wake(h.writable)
			if more {
				wake(h.readable) // pass the turn to a concurrent reader
			}
			return n, nil
		}
		if h.eof {
			h.mu.Unlock()
			wake(h.readable)
			return 0, io.EOF
		}
		h.parked = true
		h.mu.Unlock()
		select {
		case <-h.readable:
		case <-h.rdl.wait():
			h.mu.Lock()
			h.parked = false
			h.mu.Unlock()
			return 0, os.ErrDeadlineExceeded
		}
		h.mu.Lock()
		h.parked = false
	}
}

// closeWrite closes the writing end: the reader still gets every byte
// already accepted, then io.EOF.
func (h *half) closeWrite() {
	h.mu.Lock()
	h.eof = true
	h.mu.Unlock()
	wake(h.readable)
	wake(h.writable)
}

// fail kills the direction with err: undelivered bytes are dropped and
// both ends' further reads and writes return err.
func (h *half) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.buf, h.off = nil, 0
	h.mu.Unlock()
	wake(h.readable)
	wake(h.writable)
}

// deadline is a settable timeout: wait returns a channel closed once the
// deadline passes, and a new one when the deadline is moved again.
type deadline struct {
	mu     sync.Mutex
	timer  *time.Timer
	cancel chan struct{}
}

func newDeadline() deadline { return deadline{cancel: make(chan struct{})} }

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil && !d.timer.Stop() {
		<-d.cancel // the timer fired: wait for its close to land
	}
	d.timer = nil
	if expired(d.cancel) {
		d.cancel = make(chan struct{})
	}
	if t.IsZero() {
		return
	}
	if dur := time.Until(t); dur > 0 {
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
		return
	}
	close(d.cancel)
}

func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func expired(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
