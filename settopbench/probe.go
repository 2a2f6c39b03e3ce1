package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"

	"itv/internal/atm"
	"itv/internal/auth"
	"itv/internal/cluster"
	"itv/internal/cmgr"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/mms"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// probeSession issues a service's server-side fan-out from a benchmark
// endpoint on that service's server host, signed with the realm key as
// the server's own endpoints are, with the arguments the service uses.
// Each call is a span, so the traced run times the layers below MMS and
// RDS that the settop's own spans cannot see into.
type probeSession struct {
	sess *core.Session
	// peer is a remote object for the null call: another server's
	// name-service root.
	peer oref.Ref
}

func newProbeSession(c *cluster.Cluster, host, peerHost string) (*probeSession, error) {
	ep, err := orb.NewEndpoint(c.NW.Host(host))
	if err != nil {
		return nil, err
	}
	if c.Auth != nil {
		v := auth.NewVerifier(c.Auth.RealmKey(), c.Clk)
		v.Name = "server/" + host
		ep.SetAuthenticator(v)
	}
	return &probeSession{
		sess: core.NewSession(ep, names.RootRefAt(nsAddr(host)), c.Clk),
		peer: names.RootRefAt(nsAddr(peerHost)),
	}, nil
}

func nsAddr(host string) string { return fmt.Sprintf("%s:%d", host, names.WellKnownPort) }

func (p *probeSession) close() { p.sess.Ep.Close() }

func (p *probeSession) nullCall(r *recorder) error {
	return r.span("orb.null_call", func() error { return p.sess.Ep.Ping(p.peer) })
}

// mmsFanOut repeats the name-service, MDS and Connection Manager calls
// the MMS makes to open title for settop (Fig. 4 steps 3–4), allocating
// and releasing the connection without opening the movie.
func (p *probeSession) mmsFanOut(r *recorder, settop, title string) error {
	root, ep := p.sess.Root, p.sess.Ep
	if err := r.span("names.resolve", func() error {
		_, err := root.Resolve(mms.ServiceName)
		return err
	}); err != nil {
		return err
	}
	var cmgrRef oref.Ref
	if err := r.span("names.resolve_as", func() (err error) {
		cmgrRef, err = root.ResolveAs(cmgr.ContextPath, settop)
		return err
	}); err != nil {
		return err
	}
	var replicas []names.Binding
	if err := r.span("names.list_repl", func() (err error) {
		replicas, err = root.ListRepl(media.ContextPath)
		return err
	}); err != nil {
		return err
	}
	server, bitrate := "", int64(0)
	for _, b := range replicas {
		if b.Name == names.SelectorBinding {
			continue
		}
		stub := media.Stub{Ep: ep, Ref: b.Ref}
		var info media.MovieInfo
		var has bool
		if err := r.span("media.has", func() (err error) {
			info, has, err = stub.Has(title)
			return err
		}); err != nil {
			return err
		}
		if !has {
			continue
		}
		if err := r.span("media.load", func() error {
			_, err := stub.Load()
			return err
		}); err != nil {
			return err
		}
		if server == "" {
			server, bitrate = hostOf(b.Ref.Addr), info.Bitrate
		}
	}
	if server == "" {
		return fmt.Errorf("%w: no MDS replica reports stocking %q", errCheck, title)
	}
	return p.allocRelease(r, cmgrRef, settop, server, bitrate, atm.CBR)
}

// rdsFanOut repeats the calls the neighborhood's RDS makes for one
// download: the Connection Manager lookup and a VBR allocate/release.
func (p *probeSession) rdsFanOut(r *recorder, settop, server string, rate int64) error {
	var cmgrRef oref.Ref
	if err := r.span("names.resolve_as", func() (err error) {
		cmgrRef, err = p.sess.Root.ResolveAs(cmgr.ContextPath, settop)
		return err
	}); err != nil {
		return err
	}
	return p.allocRelease(r, cmgrRef, settop, server, rate, atm.VBR)
}

func (p *probeSession) allocRelease(r *recorder, cmgrRef oref.Ref, settop, server string, rate int64, kind atm.Kind) error {
	stub := cmgr.Stub{Ep: p.sess.Ep, Ref: cmgrRef}
	var alloc cmgr.Alloc
	if err := r.span("cmgr.allocate", func() (err error) {
		alloc, err = stub.Allocate(settop, server, rate, kind)
		return err
	}); err != nil {
		return err
	}
	return r.span("cmgr.release", func() error { return stub.Release(alloc.ID) })
}

// rawEcho echoes bytes over a bare transport connection, below the wire
// codec and the ORB: the transport.rtt probe's server.
type rawEcho struct {
	ln    net.Listener
	addr  string
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startRawEcho(tr transport.Transport) (*rawEcho, error) {
	ln, addr, err := tr.Listen()
	if err != nil {
		return nil, err
	}
	e := &rawEcho{ln: ln, addr: addr}
	e.wg.Add(1)
	go e.accept()
	return e, nil
}

func (e *rawEcho) accept() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.mu.Lock()
		e.conns = append(e.conns, c)
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			_, _ = io.Copy(c, c) // ends when either side closes
		}()
	}
}

// close stops the listener and every echo and waits for them.
func (e *rawEcho) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// rttProbe is one caller's end of the transport.rtt probe.
type rttProbe struct {
	conn    net.Conn
	out, in [64]byte
}

func dialRTT(tr transport.Transport, addr string) (*rttProbe, error) {
	c, err := tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	p := &rttProbe{conn: c}
	for i := range p.out {
		p.out[i] = byte(i)
	}
	return p, nil
}

func (p *rttProbe) probe(r *recorder) error {
	return r.span("transport.rtt", func() error {
		if _, err := p.conn.Write(p.out[:]); err != nil {
			return err
		}
		if _, err := io.ReadFull(p.conn, p.in[:]); err != nil {
			return err
		}
		if p.in != p.out {
			return fmt.Errorf("%w: raw echo returned different bytes", errCheck)
		}
		return nil
	})
}

func (p *rttProbe) close() { p.conn.Close() }

// blob marshals as one byte string.
type blob []byte

func (b *blob) MarshalWire(e *wire.Encoder) { e.PutBytes(*b) }

// frameProbe times the wire codec alone: payload framed the way the ORB
// frames a message, read back from memory and decoded.
func frameProbe(r *recorder, payload []byte, buf *[]byte) error {
	return r.span("wire.frame", func() error {
		b := blob(payload)
		enc := wire.GetEncoder()
		defer wire.PutEncoder(enc)
		if err := wire.AppendFrame(enc, &b); err != nil {
			return err
		}
		frame, err := wire.ReadFrameInto(bytes.NewReader(enc.Bytes()), (*buf)[:0])
		if err != nil {
			return err
		}
		//lint:ignore poolown the frame becomes the next probe's read buffer and is not read once reused
		*buf = frame
		var dec wire.Decoder
		dec.Reset(frame)
		if !bytes.Equal(dec.BytesView(), payload) || dec.Err() != nil {
			return fmt.Errorf("%w: wire round trip changed a %d-byte payload", errCheck, len(payload))
		}
		return nil
	})
}

func hostOf(addr string) string {
	if h, _, err := net.SplitHostPort(addr); err == nil {
		return h
	}
	return addr
}
