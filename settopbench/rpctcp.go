package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/transport"
	"itv/internal/wire"
)

// echoObject returns its argument bytes unchanged.
type echoObject struct{}

func (echoObject) TypeID() string { return "settopbench.Echo" }

func (echoObject) Dispatch(c *orb.ServerCall) error {
	if c.Method() != "echo" {
		return orb.ErrNoSuchMethod
	}
	c.Results().PutBytes(c.Args().BytesView())
	return nil
}

// rpcTCP: one endpoint serves an echo object on loopback TCP; each caller
// is a client endpoint with its own connection, unsigned as itv-server
// runs, sending seeded payloads.  Only the ORB, the wire codec and TCP
// are on this path.
type rpcTCP struct {
	server  *orb.Endpoint
	ref     oref.Ref
	callers []*echoCaller
	// Traced run only.
	echo *rawEcho
	rtt  []*rttProbe
}

// echoCaller keeps one caller's argument and result callbacks, bound once,
// so a call allocates nothing beyond what the ORB itself does.
type echoCaller struct {
	ep       *orb.Endpoint
	payloads [][]byte
	cur      []byte
	echoed   bool
	put      func(*wire.Encoder)
	get      func(*wire.Decoder) error
}

func (c *echoCaller) putPayload(e *wire.Encoder) { e.PutBytes(c.cur) }

func (c *echoCaller) checkEcho(d *wire.Decoder) error {
	c.echoed = bytes.Equal(d.BytesView(), c.cur)
	return nil
}

func newRPCTCP(cfg config) (instance, error) {
	w := &rpcTCP{}
	if err := w.init(cfg); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *rpcTCP) init(cfg config) error {
	tr := transport.TCP()
	server, err := orb.NewEndpoint(tr)
	if err != nil {
		return err
	}
	w.server = server
	w.ref = server.Register("echo", echoObject{})
	for i := 0; i < cfg.callers; i++ {
		ep, err := orb.NewEndpoint(tr)
		if err != nil {
			return err
		}
		c := &echoCaller{ep: ep, payloads: payloadSequence(cfg.seed, i)}
		c.put, c.get = c.putPayload, c.checkEcho
		w.callers = append(w.callers, c)
	}
	if !cfg.traced {
		return nil
	}
	if w.echo, err = startRawEcho(tr); err != nil {
		return err
	}
	for range w.callers {
		p, err := dialRTT(tr, w.echo.addr)
		if err != nil {
			return err
		}
		w.rtt = append(w.rtt, p)
	}
	return nil
}

func (w *rpcTCP) cycle(d *caller) (time.Duration, error) {
	c := w.callers[d.id]
	c.cur = c.payloads[d.n%int64(len(c.payloads))]
	c.echoed = false
	var lat time.Duration
	var err error
	if d.rec != nil {
		lat, err = d.rec.timed("orb.invoke", func() error { return c.ep.Invoke(w.ref, "echo", c.put, c.get) })
	} else {
		start := time.Now()
		err = c.ep.Invoke(w.ref, "echo", c.put, c.get)
		lat = time.Since(start)
	}
	if err == nil && !c.echoed {
		err = fmt.Errorf("%w: echo of a %d-byte payload came back different", errCheck, len(c.cur))
	}
	return lat, err
}

func (w *rpcTCP) probe(d *caller) error {
	c := w.callers[d.id]
	return errors.Join(
		d.rec.span("orb.null_call", func() error { return c.ep.Ping(w.ref) }),
		frameProbe(d.rec, c.cur, &d.frameBuf),
		w.rtt[d.id].probe(d.rec))
}

// verify has nothing left to check: every echo was compared as it
// returned, and the workload holds no state in the system.
func (w *rpcTCP) verify() error { return nil }

func (w *rpcTCP) close() {
	for _, p := range w.rtt {
		p.close()
	}
	if w.echo != nil {
		w.echo.close()
	}
	for _, c := range w.callers {
		c.ep.Close()
	}
	if w.server != nil {
		w.server.Close()
	}
}
