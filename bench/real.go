package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/rtnet"
	"xunet/internal/signaling"
)

// errNoLoopback marks a build that failed because loopback sockets are
// unavailable; the smoke test skips real_* workloads on it.
var errNoLoopback = errors.New("loopback sockets unavailable")

// ---------------------------------------------------------------------
// real_setup
// ---------------------------------------------------------------------

// realSetup is a native-mode call over the real daemon: two
// signaling.StartReal daemons on the loopback joined by the UDP
// carrier, a server application, and closed-loop callers that open,
// authenticate and close one call at a time. It is the cycle of
// BenchmarkRealSetups rebuilt from the public API.
type realSetup struct {
	cfg       runConfig
	unbatched bool
	callers   int
	setups    int // per segment, all callers together
	a, b      *signaling.RealHost
	apps      []*setupApp
	closers   []func()
	lat       []time.Duration // OpenConnection latency, timed run

	base map[string]float64
}

// setupApp is one caller and the service it calls.
type setupApp struct {
	service string
	cli     *signaling.RealClient
	cliL    net.Listener
	cliPort uint16
	grants  chan srvGrant
}

// srvGrant is what the server application hands the caller after
// accepting: the granted VCI and cookie to bind, and when the server's
// two library calls started and ended.
type srvGrant struct {
	vci                        atm.VCI
	cookie                     uint16
	err                        error
	awaitStart, acceptStart, t time.Time
}

func newRealSetup(unbatched bool, callers, setups int) *realSetup {
	return &realSetup{unbatched: unbatched, callers: callers, setups: setups}
}

func (w *realSetup) startDaemon(addr atm.Addr) (*signaling.RealHost, error) {
	h, err := signaling.StartReal(addr, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNoLoopback, err)
	}
	w.closers = append(w.closers, h.Close)
	if err := h.EnablePeerNet(signaling.PeerNetConfig{Unbatched: w.unbatched}); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoLoopback, err)
	}
	return h, nil
}

func (w *realSetup) build(cfg runConfig) error {
	w.cfg = cfg
	w.setups = cfg.scaled(w.setups)
	var err error
	if w.a, err = w.startDaemon("a.rt"); err != nil {
		return err
	}
	if w.b, err = w.startDaemon("b.rt"); err != nil {
		return err
	}
	if err := w.a.AddPeer("b.rt", w.b.PeerNet().Addr()); err != nil {
		return err
	}
	if err := w.b.AddPeer("a.rt", w.a.PeerNet().Addr()); err != nil {
		return err
	}
	for i := 0; i < w.callers; i++ {
		app, err := w.startApp(fmt.Sprintf("echo%d", i))
		if err != nil {
			return err
		}
		w.apps = append(w.apps, app)
	}
	return nil
}

// startApp exports one service at daemon b with a server goroutine that
// accepts every call, and prepares the caller's side at daemon a.
func (w *realSetup) startApp(service string) (*setupApp, error) {
	listen := func() (net.Listener, uint16, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", errNoLoopback, err)
		}
		w.closers = append(w.closers, func() { l.Close() })
		return l, uint16(l.Addr().(*net.TCPAddr).Port), nil
	}
	srvL, srvPort, err := listen()
	if err != nil {
		return nil, err
	}
	srvC := &signaling.RealClient{SighostAddr: w.b.ListenAddr()}
	if err := srvC.ExportService(service, srvPort); err != nil {
		return nil, err
	}
	app := &setupApp{service: service, grants: make(chan srvGrant, 1)}
	go func() {
		for {
			g := srvGrant{awaitStart: time.Now()}
			req, err := signaling.AwaitServiceRequest(srvL)
			if err != nil {
				return // listener closed
			}
			req.ReplyTimeout = 30 * time.Second
			g.acceptStart = time.Now()
			g.vci, _, g.err = req.Accept("")
			g.cookie, g.t = req.Cookie, time.Now()
			app.grants <- g
		}
	}()
	app.cli = &signaling.RealClient{SighostAddr: w.a.ListenAddr(), EstablishTimeout: 30 * time.Second}
	if app.cliL, app.cliPort, err = listen(); err != nil {
		return nil, err
	}
	return app, nil
}

var loopbackIP = memnet.IP4(127, 0, 0, 1)

// setup runs one open -> connect -> bind -> close cycle and returns the
// caller-observed OpenConnection latency.
func (w *realSetup) setup(app *setupApp, sp *recorder) (time.Duration, error) {
	sp.nextOp()
	root := sp.begin("setup", 0)
	s := sp.begin("rtclient.open", root)
	t0 := time.Now()
	conn, err := app.cli.OpenConnection("b.rt", app.service, app.cliL, app.cliPort, "", "cbr:100")
	lat := time.Since(t0)
	sp.end(s)
	if err != nil {
		return 0, err
	}
	s = sp.begin("rtenv.grant_wait", root)
	g := <-app.grants
	sp.end(s)
	if g.err != nil {
		return 0, g.err
	}
	if sp != nil {
		// The server's two calls ran on its own goroutine, overlapping
		// the caller's open; they are recorded beside the root, not
		// under it, so the root's partition counts no interval twice.
		sp.addAbs("rtclient.await", g.awaitStart, g.acceptStart)
		sp.addAbs("rtclient.accept", g.acceptStart, g.t)
	}
	// The kernel half of the lifecycle (a bench host has no ATM
	// driver): connect and bind authenticate the granted VCIs, close
	// tears the call down across the carrier and recycles both
	// daemons' VCIs.
	s = sp.begin("rtenv.kernel_connect", root)
	w.a.Do(func() {
		w.a.SH.HandleKernel(loopbackIP, kern.KMsg{Kind: kern.MsgConnect, VCI: conn.VCI, Cookie: conn.Cookie})
	})
	sp.end(s)
	s = sp.begin("rtenv.kernel_bind", root)
	w.b.Do(func() {
		w.b.SH.HandleKernel(loopbackIP, kern.KMsg{Kind: kern.MsgBind, VCI: g.vci, Cookie: g.cookie})
	})
	sp.end(s)
	s = sp.begin("rtenv.kernel_close", root)
	w.a.Do(func() {
		w.a.SH.HandleKernel(loopbackIP, kern.KMsg{Kind: kern.MsgClose, VCI: conn.VCI})
	})
	sp.end(s)
	sp.end(root)
	return lat, nil
}

func (w *realSetup) segment() (ops, failed int, err error) {
	if w.callers == 1 {
		for i := 0; i < w.setups; i++ {
			lat, err := w.setup(w.apps[0], w.cfg.spans)
			if err != nil {
				return i, 1, err
			}
			w.lat = append(w.lat, lat)
		}
		return w.setups, 0, nil
	}
	// Several callers: one goroutine each, untraced (the recorder is
	// single-threaded and this mode is a concurrency diagnostic).
	per := w.setups / w.callers
	errs := make(chan error, w.callers)
	for _, app := range w.apps {
		go func() {
			for i := 0; i < per; i++ {
				if _, err := w.setup(app, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range w.apps {
		if e := <-errs; e != nil {
			err = e
		}
	}
	if err != nil {
		return per * w.callers, 1, err
	}
	return per * w.callers, 0, nil
}

// lists reads a daemon's five list sizes and cookie count in actor
// context.
func lists(h *signaling.RealHost) (l [5]int) {
	h.Do(func() {
		_, l[0], l[1], l[2], l[3] = h.SH.ListSizes()
		l[4] = h.SH.CookieCount()
	})
	return l
}

func (w *realSetup) counters() map[string]float64 {
	c := map[string]float64{}
	for _, h := range []*signaling.RealHost{w.a, w.b} {
		for _, cs := range h.SH.Obs.Snapshot().Counters {
			c[cs.Name] += float64(cs.Value)
		}
	}
	return c
}

func (w *realSetup) mark() {
	w.lat = w.lat[:0]
	w.settle() // the warm-up's last release may still be crossing the carrier
	w.base = w.counters()
}

func (w *realSetup) report(r *result) {
	ops := r.Ops
	r.note("setup latency: n=%d samples", len(w.lat))
	w.settle() // so the last release is counted, and counts repeat exactly
	now := w.counters()
	per := func(name string) float64 { return (now[name] - w.base[name]) / float64(ops) }
	L := r.Layers
	L["rtenv.carrier_frames_per_setup"] = per("rtnet.tx.frames")
	L["sighost.msgs_app_per_call"] = per("sighost.msgs.app")
	L["sighost.msgs_kernel_per_call"] = per("sighost.msgs.kernel")
	L["sighost.msgs_peer_per_call"] = per("sighost.msgs.peer")
	L["rtnet.rx_bad_frames"] = now["rtnet.rx.bad_frame"] - w.base["rtnet.rx.bad_frame"]
	L["rtclient.open_p50_us"] = durQuantileUS(w.lat, 0.50)
	L["rtclient.open_p99_us"] = durQuantileUS(w.lat, 0.99)
	L["rtclient.open_p999_us"] = durQuantileUS(w.lat, 0.999)
	if sp := w.cfg.spans; sp != nil {
		for metric, name := range map[string]string{
			"rtclient.accept_p50_us":      "rtclient.accept",
			"rtenv.grant_wait_p50_us":     "rtenv.grant_wait",
			"rtenv.kernel_connect_p50_us": "rtenv.kernel_connect",
			"rtenv.kernel_bind_p50_us":    "rtenv.kernel_bind",
			"rtenv.kernel_close_p50_us":   "rtenv.kernel_close",
		} {
			L[metric] = durQuantileUS(sp.durations(name), 0.5)
		}
		// The root span's partition: its five children and its own
		// self time sum to 100 %.
		total, self := sp.selfTimes()
		if root := float64(total["setup"]); root > 0 {
			L["rtenv.unattributed_pct"] = 100 * float64(self["setup"]) / root
			for _, name := range []string{"rtclient.open", "rtenv.grant_wait", "rtenv.kernel_connect", "rtenv.kernel_bind", "rtenv.kernel_close"} {
				L["span_share_pct."+name] = 100 * float64(total[name]) / root
			}
		}
	}
}

// settle waits for both daemons' transient lists and cookie tables to
// empty (teardown crosses the carrier asynchronously) and returns what
// is still held after half a second.
func (w *realSetup) settle() []string {
	var leaks []string
	for _, h := range []*signaling.RealHost{w.a, w.b} {
		var got [5]int
		for try := 0; try < 50; try++ {
			if got = lists(h); got == ([5]int{}) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if got != ([5]int{}) {
			leaks = append(leaks, fmt.Sprintf("%s holds outgoing=%d incoming=%d wait_bind=%d vci_map=%d cookies=%d",
				h.Addr, got[0], got[1], got[2], got[3], got[4]))
		}
	}
	return leaks
}

func (w *realSetup) finish() []string { return w.settle() }

func (w *realSetup) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// ---------------------------------------------------------------------
// real_frames
// ---------------------------------------------------------------------

// burst is how many frames ride one flush: the carrier's batch size.
const burst = rtnet.DefaultBatch

// realFrames is the real data path with no signaling: an rtnet carrier
// pair on the loopback driven from one goroutine. Each burst is 32
// AAL5 frames coalesced, flushed and drained back off the socket; the
// receiver checks every frame's CRC, sequence number and length.
type realFrames struct {
	cfg       runConfig
	unbatched bool
	raw       bool // SendSig of bare frames instead of the AAL5 link
	payload   []byte
	bursts    int // per segment
	locked    bool

	txc, rxc     *rtnet.Carrier
	peer         *rtnet.Peer
	txReg, rxReg *obs.Registry
	txLink       rtnet.AAL5Link
	rxLink       rtnet.AAL5Link
	got, bad     int

	base map[string]float64
	ns0  time.Time
}

func newRealFrames(unbatched, raw bool, payloadBytes, bursts int) *realFrames {
	return &realFrames{unbatched: unbatched, raw: raw, payload: make([]byte, payloadBytes), bursts: bursts}
}

func (w *realFrames) build(cfg runConfig) error {
	// The load generator keeps its OS thread. Unlocked, the scheduler
	// hands the goroutine to another thread whenever a receive has to
	// wait in the poller, and the rate wanders between 450 k and 690 k
	// frames/s from run to run; locked it stays near the top.
	runtime.LockOSThread()
	w.locked = true
	w.cfg = cfg
	w.bursts = cfg.scaled(w.bursts)
	for i := range w.payload {
		w.payload[i] = byte(uint64(i) * (cfg.seed | 1))
	}
	w.txReg, w.rxReg = obs.NewRegistry(), obs.NewRegistry()
	mk := func(c rtnet.Config) (*rtnet.Carrier, error) {
		c.Listen, c.Unbatched, c.ManualRx = "127.0.0.1:0", w.unbatched, true
		car, err := rtnet.New(c)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errNoLoopback, err)
		}
		return car, nil
	}
	var err error
	if w.txc, err = mk(rtnet.Config{Obs: w.txReg}); err != nil {
		return err
	}
	w.rxc, err = mk(rtnet.Config{
		Obs:   w.rxReg,
		OnSig: func(*rtnet.Peer, []byte) { w.got++ },
		OnData: func(_ *rtnet.Peer, _ atm.VCI, frame []byte) {
			w.got++
			if p, err := w.rxLink.Recv(frame); err != nil || len(p) != len(w.payload) {
				w.bad++
			}
		},
	})
	if err != nil {
		return err
	}
	if w.peer, err = w.txc.AddPeer("rx", w.rxc.AddrPort()); err != nil {
		return err
	}
	if _, err = w.rxc.AddPeer("tx", w.txc.AddrPort()); err != nil {
		return err
	}
	w.txLink = rtnet.AAL5Link{P: w.peer, VCI: 42}
	return nil
}

func (w *realFrames) segment() (ops, failed int, err error) {
	sp := w.cfg.spans
	bad0 := w.bad
	for i := 0; i < w.bursts; i++ {
		sp.nextOp()
		root := sp.begin("burst", 0)
		s := sp.begin("AAL5Link.Send", root)
		for j := 0; j < burst; j++ {
			if w.raw {
				err = w.peer.SendSig(w.payload)
			} else {
				err = w.txLink.Send(w.payload)
			}
			if err != nil {
				return i * burst, 1, err
			}
		}
		sp.end(s)
		s = sp.begin("Peer.Flush", root)
		err = w.peer.Flush()
		sp.end(s)
		if err != nil {
			return i * burst, 1, err
		}
		s = sp.begin("Carrier.RecvOnce", root)
		for want := w.got + burst; w.got < want; {
			if _, err := w.rxc.RecvOnce(); err != nil {
				return i * burst, 1, err
			}
		}
		sp.end(s)
		sp.end(root)
	}
	return w.bursts * burst, w.bad - bad0, nil
}

func (w *realFrames) counters() map[string]float64 {
	c := map[string]float64{}
	for _, reg := range []*obs.Registry{w.txReg, w.rxReg} {
		for _, cs := range reg.Snapshot().Counters {
			c[cs.Name] += float64(cs.Value)
		}
	}
	return c
}

func (w *realFrames) mark() { w.base, w.ns0 = w.counters(), time.Now() }

func (w *realFrames) report(r *result) {
	ops := r.Ops
	now := w.counters()
	d := func(name string) float64 { return now[name] - w.base[name] }
	L := r.Layers
	L["rtnet.ns_per_frame"] = float64(time.Since(w.ns0).Nanoseconds()) / float64(ops)
	L["rtnet.syscalls_per_frame"] = (d("rtnet.tx.frames") - d("rtnet.tx.syscalls_saved") + d("rtnet.rx.batches")) / float64(ops)
	L["rtnet.rx_bad_frames"] = d("rtnet.rx.bad_frame")
	L["rtnet.allocs_per_frame"] = L["go.allocs_per_op"]
}

func (w *realFrames) finish() []string {
	if in, ooo := w.rxLink.Seq.InOrder, w.rxLink.Seq.OutOfOrder; !w.raw && (ooo != 0 || int(in) != w.got) {
		return []string{fmt.Sprintf("AAL5 sequence tracker: %d in order, %d out of order, %d received", in, ooo, w.got)}
	}
	return nil
}

func (w *realFrames) close() {
	if w.locked {
		runtime.UnlockOSThread()
		w.locked = false
	}
	for _, c := range []*rtnet.Carrier{w.txc, w.rxc} {
		if c != nil {
			c.Close() // idempotent
		}
	}
}
