package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"itv/internal/auth"
	"itv/internal/bootsvc"
	"itv/internal/cluster"
	"itv/internal/core"
	"itv/internal/media"
	"itv/internal/mms"
	"itv/internal/names"
	"itv/internal/orb"
	"itv/internal/oref"
	"itv/internal/rds"
	"itv/internal/settop"
	"itv/internal/settopmgr"
	"itv/internal/vod"
)

// app is the application a powered-on settop tunes to.
const app = "navigator"

// orlando is the §9.6 Orlando configuration with §3.3 signing on, started
// and settled.  Its fake clock is left frozen from here on: the liveness
// timers never fire during timing, and neither does anything else that
// waits on simulated time.
type orlando struct {
	c *cluster.Cluster
	// probes and rtt serve the traced run only.
	probes map[string]*probeSession // by server host
	echo   *rawEcho
	rtt    []*rttProbe // by caller
}

func startOrlando() (o *orlando, err error) {
	cfg := cluster.Orlando()
	cfg.EnableAuth = true
	c := cluster.New(cfg)
	defer func() {
		// The harness panics when the cluster never settles.
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster start: %v", p)
		}
	}()
	c.Start()
	if !c.WaitFor(func() bool {
		for _, s := range c.Servers {
			if v := s.VOD(); v != nil && v.IsPrimary() {
				return true
			}
		}
		return false
	}) {
		c.Stop()
		return nil, errors.New("no VOD primary elected")
	}
	return &orlando{c: c}, nil
}

// boot powers a settop on, letting simulated time run until it succeeds.
func (o *orlando) boot(st *settop.Settop) error {
	var err error
	if !o.c.WaitFor(func() bool { _, err = st.Boot(); return err == nil }) {
		return fmt.Errorf("settop %s never booted: %w", st.Host(), err)
	}
	return nil
}

// startProbes prepares the traced run's probes: a probe session on every
// server, and a raw echo on the first server with one connection per
// caller from the given settop hosts.
func (o *orlando) startProbes(settopHosts []string) error {
	o.probes = map[string]*probeSession{}
	servers := o.c.Servers
	for i, s := range servers {
		p, err := newProbeSession(o.c, s.Spec.Host, servers[(i+1)%len(servers)].Spec.Host)
		if err != nil {
			return err
		}
		o.probes[s.Spec.Host] = p
	}
	echo, err := startRawEcho(o.c.NW.Host(servers[0].Spec.Host))
	if err != nil {
		return err
	}
	o.echo = echo
	for _, h := range settopHosts {
		p, err := dialRTT(o.c.NW.Host(h), echo.addr)
		if err != nil {
			return err
		}
		o.rtt = append(o.rtt, p)
	}
	return nil
}

// commonProbes are the probes both cluster workloads share: a null call,
// the wire codec on a workload-sized payload, and the raw transport.
func (o *orlando) commonProbes(d *caller, p *probeSession, payload []byte) error {
	if err := p.nullCall(d.rec); err != nil {
		return err
	}
	if err := frameProbe(d.rec, payload, &d.frameBuf); err != nil {
		return err
	}
	return o.rtt[d.id].probe(d.rec)
}

// drained checks that no connection is left allocated on the fabric.
func (o *orlando) drained() error {
	if n := o.c.Fabric.Conns(); n != 0 {
		return fmt.Errorf("%w: %d fabric connections still allocated after drain", errCheck, n)
	}
	return nil
}

func (o *orlando) close() {
	for _, p := range o.rtt {
		p.close()
	}
	if o.echo != nil {
		o.echo.close()
	}
	for _, p := range o.probes {
		p.close()
	}
	o.c.Stop()
}

// movieChurn: each caller is a settop that opens a title, polls playback
// and closes the movie, over a seeded title order (Fig. 4).
type movieChurn struct {
	*orlando
	settops []*settop.Settop
	titles  [][]string // per caller
	// stocked maps each server host to the titles on its disks.
	stocked map[string]map[string]bool
	// Traced run: the stubs the settop's own operations use, built on its
	// session, so each step can be timed as a child span.
	mms []mms.Stub
	vod []vod.Stub
}

func newMovieChurn(cfg config) (instance, error) {
	o, err := startOrlando()
	if err != nil {
		return nil, err
	}
	w := &movieChurn{orlando: o, stocked: map[string]map[string]bool{}}
	if err := w.init(cfg); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *movieChurn) init(cfg config) error {
	servers := w.c.Servers
	var titles []string // every title stocked anywhere, in configuration order
	for _, s := range servers {
		w.stocked[s.Spec.Host] = map[string]bool{}
		for _, m := range s.Spec.Movies {
			w.stocked[s.Spec.Host][m.Title] = true
			if !slices.Contains(titles, m.Title) {
				titles = append(titles, m.Title)
			}
		}
	}
	var hosts []string
	for i := 0; i < cfg.callers; i++ {
		// Consecutive callers live in neighborhoods of different servers.
		s := servers[i%len(servers)]
		nb := s.Spec.Neighborhoods[(i/len(servers))%len(s.Spec.Neighborhoods)]
		st := w.c.NewSettop(nb, i)
		if err := w.boot(st); err != nil {
			return err
		}
		w.settops = append(w.settops, st)
		w.titles = append(w.titles, titleSequence(cfg.seed, i, titles))
		hosts = append(hosts, st.Host())
		if cfg.traced {
			w.mms = append(w.mms, mms.NewStub(st.Session()))
			w.vod = append(w.vod, vod.NewStub(st.Session()))
		}
	}
	if cfg.traced {
		return w.startProbes(hosts)
	}
	return nil
}

func (w *movieChurn) title(d *caller) string {
	seq := w.titles[d.id]
	return seq[d.n%int64(len(seq))]
}

// checkServed verifies that the MDS serving a movie stocks its title.
func (w *movieChurn) checkServed(title string, movie oref.Ref) error {
	if host := hostOf(movie.Addr); !w.stocked[host][title] {
		return fmt.Errorf("%w: %q opened on the MDS at %s, which does not stock it", errCheck, title, host)
	}
	return nil
}

func (w *movieChurn) cycle(d *caller) (time.Duration, error) {
	if d.rec != nil {
		return w.tracedCycle(d)
	}
	st, title := w.settops[d.id], w.title(d)
	start := time.Now()
	err := st.OpenMovie(title)
	lat := time.Since(start)
	if err != nil {
		return 0, err
	}
	pb, _ := st.Playback()
	checkErr := w.checkServed(title, pb.Movie.Ref)
	_, _, pollErr := st.PollPlayback()
	return lat, errors.Join(checkErr, pollErr, st.CloseMovie())
}

// tracedCycle runs the steps of OpenMovie, PollPlayback and CloseMovie
// through the stubs the settop uses, each step a span.
func (w *movieChurn) tracedCycle(d *caller) (time.Duration, error) {
	r, mmsStub, vodStub, title := d.rec, w.mms[d.id], w.vod[d.id], w.title(d)
	var movie media.Movie
	var id string
	lat, err := r.timed("settop.open_movie", func() error {
		if err := r.span("mms.open", func() (err error) {
			movie, id, err = mmsStub.Open(title)
			return err
		}); err != nil {
			return err
		}
		var resume int64
		_ = r.span("vod.get_position", func() error {
			// As in the settop, a missing saved position means "start".
			if pos, ok, err := vodStub.GetPosition(title); err == nil && ok {
				resume = pos
			}
			return nil
		})
		return r.span("media.play", func() error { return movie.Play(resume) })
	})
	if err != nil {
		if id != "" {
			_ = mmsStub.Close(id)
		}
		return 0, err
	}
	checkErr := w.checkServed(title, movie.Ref)
	pollErr := r.span("settop.poll_playback", func() error {
		var pos int64
		if err := r.span("media.position", func() (err error) {
			pos, _, err = movie.Position()
			return err
		}); err != nil {
			return err
		}
		_ = r.span("vod.save_position", func() error { return vodStub.SavePosition(title, pos) })
		return nil
	})
	closeErr := r.span("settop.close_movie", func() error {
		_ = r.span("vod.forget", func() error { return vodStub.Forget(title) })
		return r.span("mms.close", func() error { return mmsStub.Close(id) })
	})
	return lat, errors.Join(checkErr, pollErr, closeErr)
}

func (w *movieChurn) probe(d *caller) error {
	st := w.settops[d.id]
	primary := w.c.MMSPrimary()
	if primary == nil {
		return errors.New("no MMS primary to probe from")
	}
	p := w.probes[primary.Spec.Host]
	if err := p.mmsFanOut(d.rec, st.Host(), w.title(d)); err != nil {
		return err
	}
	return w.commonProbes(d, p, []byte(w.title(d)))
}

func (w *movieChurn) verify() error {
	for _, s := range w.c.Servers {
		if m := s.MMS(); m != nil && m.OpenCount() != 0 {
			return fmt.Errorf("%w: MMS on %s still tracks %d open movies after drain", errCheck, s.Spec.Name, m.OpenCount())
		}
	}
	return w.drained()
}

// powerOn: each caller takes the next settop of a seeded rotation over a
// pool spanning every neighborhood, and powers it off and on again: boot,
// then tune to the navigator application (§3.4.1, §9.3).
type powerOn struct {
	*orlando
	pool []*settop.Settop
	// free holds the settops no caller is using, in rotation order; it is
	// sized to the pool, so returning a settop never blocks.
	free                chan *settop.Settop
	last                []*settop.Settop // by caller: the settop of its latest cycle
	kernelSize, appSize int
}

func newPowerOn(cfg config) (instance, error) {
	o, err := startOrlando()
	if err != nil {
		return nil, err
	}
	w := &powerOn{orlando: o, last: make([]*settop.Settop, cfg.callers),
		kernelSize: len(o.c.Cfg.Kernel), appSize: len(o.c.Cfg.Apps[app])}
	if err := w.init(cfg); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *powerOn) init(cfg config) error {
	var nbhds []string
	for _, s := range w.c.Servers {
		nbhds = append(nbhds, s.Spec.Neighborhoods...)
	}
	// At least two settops per neighborhood and two per caller, so a
	// caller never waits for a settop another caller holds.
	per := max(2, (2*cfg.callers+len(nbhds)-1)/len(nbhds))
	for i := 0; i < per; i++ {
		for _, nb := range nbhds {
			st := w.c.NewSettop(nb, i)
			if err := w.boot(st); err != nil {
				return err
			}
			w.pool = append(w.pool, st)
		}
	}
	w.free = make(chan *settop.Settop, len(w.pool))
	for _, i := range rotation(cfg.seed, len(w.pool)) {
		w.free <- w.pool[i]
	}
	if !cfg.traced {
		return nil
	}
	hosts := make([]string, cfg.callers)
	for i := range hosts {
		hosts[i] = w.pool[i].Host()
	}
	return w.startProbes(hosts)
}

func (w *powerOn) cycle(d *caller) (time.Duration, error) {
	st := <-w.free
	defer func() { w.free <- st }()
	w.last[d.id] = st
	st.Crash()
	if d.rec != nil {
		return w.tracedCycle(d.rec, st)
	}
	start := time.Now()
	if _, err := st.Boot(); err != nil {
		return 0, err
	}
	if _, _, err := st.ChangeChannel(app); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// tracedCycle powers st on through the same public steps Settop.Boot and
// ChangeChannel take, on endpoints at the settop's address, each step a
// span.  The simulated settop object itself stays off.
func (w *powerOn) tracedCycle(r *recorder, st *settop.Settop) (time.Duration, error) {
	tr := w.c.NW.Host(st.Host())
	cred := st.Credentials
	bootAddr := fmt.Sprintf("%s:%d", w.c.ServerFor(st.Neighborhood()).Spec.Host, bootsvc.WellKnownPort)
	var eps []*orb.Endpoint
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	newEp := func() (*orb.Endpoint, error) {
		ep, err := orb.NewEndpoint(tr)
		if err == nil {
			eps = append(eps, ep)
		}
		return ep, err
	}
	var ep *orb.Endpoint
	var params bootsvc.Params
	var sess *core.Session
	lat, err := r.timed("settop.power_on", func() error {
		if err := r.span("settop.boot", func() error {
			var err error
			if ep, err = newEp(); err != nil {
				return err
			}
			if err := r.span("bootsvc.params", func() (err error) {
				params, err = bootsvc.BootParams(ep, bootAddr)
				return err
			}); err != nil {
				return err
			}
			fetchEp, err := newEp()
			if err != nil {
				return err
			}
			authStub := &auth.Stub{Ep: fetchEp, Ref: oref.Persistent(cred.AuthService, auth.TypeID, "")}
			ep.SetAuthenticator(auth.NewSigner(cred.Principal, cred.Key, w.c.Clk,
				func() (ticket, key []byte, err error) {
					err = r.span("auth.issue_ticket", func() (err error) {
						ticket, key, err = authStub.IssueTicket(cred.Principal)
						return err
					})
					return ticket, key, err
				}))
			sess = core.NewSession(ep, names.RootRefAt(params.NameService), w.c.Clk)
			if len(params.Servers) > 1 {
				addrs := []string{params.NameService}
				for _, h := range params.Servers {
					if a := nsAddr(h); a != params.NameService {
						addrs = append(addrs, a)
					}
				}
				sess.Root.Ep = names.NewFailoverInvoker(ep, addrs)
			}
			kernel := sess.Service(bootsvc.KernelName)
			if err := r.span("names.resolve", func() error {
				_, err := kernel.Resolve()
				return err
			}); err != nil {
				return err
			}
			var image []byte
			if err := r.span("bootsvc.kernel", func() (err error) {
				image, err = bootsvc.FetchKernel(kernel)
				return err
			}); err != nil {
				return err
			}
			return w.checkSize("kernel", len(image), w.kernelSize)
		}); err != nil {
			return err
		}
		return r.span("settop.change_channel", func() error {
			rdsSvc := sess.Service(rds.ContextPath)
			if err := r.span("names.resolve", func() error {
				_, err := rdsSvc.Resolve()
				return err
			}); err != nil {
				return err
			}
			var data []byte
			if err := r.span("rds.open_data", func() (err error) {
				data, _, err = rds.Stub{Svc: rdsSvc}.OpenData(app)
				return err
			}); err != nil {
				return err
			}
			return w.checkSize(app, len(data), w.appSize)
		})
	})
	if err != nil {
		return 0, err
	}
	// The settop's first heartbeat round, which Boot sends from its own
	// goroutine, outside the user-facing latency.
	_ = r.span("settopmgr.heartbeat", func() error {
		for _, h := range params.Servers {
			_ = settopmgr.Stub{Ep: ep, Ref: settopmgr.RefAt(h)}.Heartbeat()
		}
		return nil
	})
	return lat, nil
}

func (w *powerOn) checkSize(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%w: %s payload is %d bytes, configured %d", errCheck, what, got, want)
	}
	return nil
}

func (w *powerOn) probe(d *caller) error {
	st := w.last[d.id]
	server := w.c.ServerFor(st.Neighborhood()).Spec.Host
	p := w.probes[server]
	if err := p.rdsFanOut(d.rec, st.Host(), server, rds.DefaultDownloadRate); err != nil {
		return err
	}
	return w.commonProbes(d, p, w.c.Cfg.Apps[app])
}

// verify fetches the kernel and the navigator application once more on
// every settop the untraced run left powered on, checking their sizes.
func (w *powerOn) verify() error {
	for _, st := range w.pool {
		if !st.Up() {
			continue // crashed by a traced cycle, which checked every payload
		}
		if got := st.CurrentApp(); got != app {
			return fmt.Errorf("%w: settop %s runs %q after power-on, want %q", errCheck, st.Host(), got, app)
		}
		sess := st.Session()
		image, err := bootsvc.FetchKernel(sess.Service(bootsvc.KernelName))
		if err != nil {
			return fmt.Errorf("settop %s: kernel: %w", st.Host(), err)
		}
		data, _, err := rds.NewStub(sess).OpenData(app)
		if err != nil {
			return fmt.Errorf("settop %s: %s: %w", st.Host(), app, err)
		}
		if err := errors.Join(w.checkSize("kernel", len(image), w.kernelSize),
			w.checkSize(app, len(data), w.appSize)); err != nil {
			return err
		}
	}
	return w.drained()
}
