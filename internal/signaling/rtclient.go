package signaling

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"xunet/internal/atm"
	"xunet/internal/sigmsg"
)

// RealClient is the user library for the real-TCP deployment: client.go's
// verbs over the net.Conn transport, spoken to a RealHost daemon.
//
// A client holds one connection to the daemon across RPCs (dialed on
// first use, again after any failure) and serializes RPCs on it, so it
// must not be copied after first use; Close releases the connection.
type RealClient struct {
	SighostAddr      string        // the daemon's TCP address ("127.0.0.1:3177")
	ReplyTimeout     time.Duration // each RPC reply read (default 10s)
	EstablishTimeout time.Duration // OpenConnection's wait for its outcome (default 15s)

	mu   sync.Mutex // one RPC at a time on conn, from any of the application's goroutines
	conn *rpcConn
	wbuf []byte
	rbuf []byte
	dec  sigmsg.Decoder
}

// dialTimeout bounds each TCP connect to the daemon.
const dialTimeout = 5 * time.Second

// realDefaults are the real front's deadlines: a daemon answers in
// microseconds, so a client waits seconds, not the simulated minute.
var realDefaults = Timeouts{RPC: 10 * time.Second, Establish: 15 * time.Second}.Or(DefaultTimeouts())

// Client is the protocol client over c's connection: its Query and
// CancelRequest are the verbs RealClient does not wrap.
func (c *RealClient) Client() Client[netTransport] {
	return Client[netTransport]{netTransport{c}, Timeouts{RPC: c.ReplyTimeout, Establish: c.EstablishTimeout}.Or(realDefaults)}
}

// ExportService registers a service whose calls arrive at notifyPort.
func (c *RealClient) ExportService(name string, notifyPort uint16) error {
	return c.Client().ExportService(name, notifyPort)
}

// OpenConnection requests a circuit and blocks until established.
// notifyListener must already be listening on notifyPort; the first call
// on a listener takes over accepting from it. One call at a time per
// listener: a notification for another cookie is taken for a stale one.
func (c *RealClient) OpenConnection(dest atm.Addr, service string, notifyListener net.Listener, notifyPort uint16, comment, qosStr string) (*Connection, error) {
	return c.Client().OpenConnection(muxFor(notifyListener), dest, service, notifyPort, comment, qosStr, 0)
}

// AwaitServiceRequest waits for one incoming-connection notification on
// the listener. The first call on a listener takes over accepting from
// it; closing the listener is what stops that.
func AwaitServiceRequest(l net.Listener) (*ServiceRequest, error) {
	return AwaitRequest(muxFor(l), realDefaults.RPC)
}

// Close releases the connection to the daemon. The client stays usable:
// the next RPC dials again.
func (c *RealClient) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drop()
}

// drop discards the held connection, so nothing still in flight on it —
// a reply that arrives after its deadline — can answer a later request.
func (c *RealClient) drop() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// rpcConn is the client's held connection; replied records whether any
// byte of the reply being waited for has arrived, read through rd.
type rpcConn struct {
	net.Conn
	rd      *bufio.Reader
	replied bool
}

func (r *rpcConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 {
		r.replied = true
	}
	return n, err
}

// netTransport is the net.Conn transport: the client's held connection,
// the wall clock, and no context switches to charge.
type netTransport struct{ c *RealClient }

// Exchange performs one request/reply exchange on the held connection,
// dialing when there is none. Any failure discards the connection. A
// request is sent a second time, on a new connection, only when it went
// out on a connection kept from an earlier RPC and that connection failed
// before one byte of reply: the daemon had hung up on an idle connection
// (a restart), so no live daemon has acted on the request — which is what
// lets CONNECT_REQ, never retried otherwise, survive a daemon restart.
func (t netTransport) Exchange(m sigmsg.Msg, wait time.Duration) (sigmsg.Msg, error) {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	// appendFrame builds prefix+body in one scratch so the request is one
	// Write.
	c.wbuf = appendFrame(c.wbuf[:0], &m)
	kept := c.conn != nil
	for {
		if c.conn == nil {
			conn, err := net.DialTimeout("tcp", c.SighostAddr, dialTimeout)
			if err != nil {
				return sigmsg.Msg{}, fmt.Errorf("%w: %v", ErrSignaling, err)
			}
			c.conn = &rpcConn{Conn: conn}
			c.conn.rd = bufio.NewReader(c.conn)
		}
		conn := c.conn
		conn.replied = false
		_, err := conn.Write(c.wbuf)
		if err == nil {
			conn.SetReadDeadline(time.Now().Add(wait))
			c.rbuf, err = readFrameInto(conn.rd, c.rbuf)
		}
		if err == nil {
			break
		}
		c.drop()
		if err = netErr(err); err == ErrTimeout || !kept || conn.replied {
			return sigmsg.Msg{}, err
		}
		kept = false
	}
	var reply sigmsg.Msg
	if err := c.dec.DecodeInto(&reply, c.rbuf); err != nil {
		c.drop()
		return sigmsg.Msg{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return reply, nil
}

func (netTransport) Sleep(d time.Duration) { time.Sleep(d) }

func (netTransport) Now() time.Duration { return time.Since(epoch) }

var epoch = time.Now()

// netErr types a failed read or write: a deadline that passed is
// ErrTimeout, anything else a daemon that cannot be reached.
func netErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	return fmt.Errorf("%w: %v", ErrSignaling, err)
}

// notifyMux is the application's end of the daemon's notify connections.
// The daemon keeps a connection to a notify port open after the exchange
// it dialed it for and sends that endpoint's next notification on it, so
// the next notification on a listener may be a new connection or the
// next frame of one accepted long ago. One accept loop per listener and
// one reader per accepted connection turn both into the same thing: a
// connection offering exactly one decoded frame on ready. Whoever takes
// it owns the connection — nothing else reads it — until Done gives it
// back to its reader or closes it. Closing the listener ends the mux:
// waiters get Accept's error, parked connections are closed, and every
// goroutine exits.
type notifyMux struct {
	l     net.Listener
	ready chan *notifyConn
	done  chan struct{} // closed when the accept loop ends
	err   error         // why it ended; read after done

	mu    sync.Mutex
	conns map[*notifyConn]struct{} // open connections; nil once ended
}

// notifyConn is one accepted notify connection. buf, dec and msg pass
// between the reader and the owner with the connection itself.
type notifyConn struct {
	mux    *notifyMux
	conn   net.Conn
	rd     *bufio.Reader // conn's reads
	held   bool          // offered or owned, not parked; guarded by mux.mu
	resume chan struct{} // park's wake-up for the reader; capacity 1, one park per offer
	buf    []byte
	dec    sigmsg.Decoder
	msg    sigmsg.Msg // the frame on offer
}

// notifyMuxes finds a listener's mux: the library's entry points take
// the bare listener. An entry lasts as long as its accept loop.
var notifyMuxes = struct {
	sync.Mutex
	m map[net.Listener]*notifyMux
}{m: map[net.Listener]*notifyMux{}}

func muxFor(l net.Listener) *notifyMux {
	notifyMuxes.Lock()
	defer notifyMuxes.Unlock()
	x := notifyMuxes.m[l]
	if x == nil {
		x = &notifyMux{
			l:     l,
			ready: make(chan *notifyConn),
			done:  make(chan struct{}),
			conns: map[*notifyConn]struct{}{},
		}
		notifyMuxes.m[l] = x
		go x.accept()
	}
	return x
}

func (x *notifyMux) accept() {
	for {
		conn, err := x.l.Accept()
		if err != nil {
			x.end(err)
			return
		}
		nc := &notifyConn{mux: x, conn: conn, rd: bufio.NewReader(conn), resume: make(chan struct{}, 1)}
		x.mu.Lock()
		x.conns[nc] = struct{}{}
		x.mu.Unlock()
		go nc.read()
	}
}

// end shuts the mux down after Accept failed (the listener was closed).
func (x *notifyMux) end(err error) {
	notifyMuxes.Lock()
	delete(notifyMuxes.m, x.l)
	notifyMuxes.Unlock()
	x.err = err
	close(x.done)
	x.mu.Lock()
	var parked []*notifyConn
	for nc := range x.conns {
		if !nc.held { // an owner closes its own when it parks
			parked = append(parked, nc)
		}
	}
	x.conns = nil
	x.mu.Unlock()
	// Outside the lock: each close wakes a reader that takes it.
	for _, nc := range parked {
		nc.conn.Close()
	}
}

// Next waits for the next notification on the listener.
func (x *notifyMux) Next(wait time.Duration) (Notice, sigmsg.Msg, error) {
	var timeout <-chan time.Time
	if wait >= 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case nc := <-x.ready:
		return nc, nc.msg, nil
	case <-x.done:
		return nil, sigmsg.Msg{}, fmt.Errorf("%w: %v", ErrSignaling, x.err)
	case <-timeout:
		return nil, sigmsg.Msg{}, ErrTimeout
	}
}

// Close does nothing: the listener is the application's.
func (x *notifyMux) Close() {}

// read is the connection's reader: one frame, offer it, wait to be
// parked, again. It exits when the connection fails or the mux ends.
func (nc *notifyConn) read() {
	x := nc.mux
	for {
		var err error
		if nc.buf, err = readFrameInto(nc.rd, nc.buf); err == nil {
			err = nc.dec.DecodeInto(&nc.msg, nc.buf)
		}
		x.mu.Lock()
		if err != nil {
			delete(x.conns, nc)
		}
		nc.held = true
		x.mu.Unlock()
		if err != nil {
			nc.conn.Close()
			return
		}
		select {
		case x.ready <- nc:
		case <-x.done:
			nc.conn.Close()
			return
		}
		select {
		case <-nc.resume:
		case <-x.done:
			return
		}
	}
}

func (nc *notifyConn) Send(m sigmsg.Msg) error {
	nc.buf = appendFrame(nc.buf[:0], &m)
	if _, err := nc.conn.Write(nc.buf); err != nil {
		return netErr(err)
	}
	return nil
}

func (nc *notifyConn) Recv(wait time.Duration) (sigmsg.Msg, error) {
	nc.conn.SetReadDeadline(time.Now().Add(wait))
	var err error
	if nc.buf, err = readFrameInto(nc.rd, nc.buf); err != nil {
		return sigmsg.Msg{}, netErr(err)
	}
	nc.conn.SetReadDeadline(time.Time{})
	if err := nc.dec.DecodeInto(&nc.msg, nc.buf); err != nil {
		return sigmsg.Msg{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return nc.msg, nil
}

// Done ends the owner's turn. Kept, the reader waits for the daemon's
// next notification on the connection; otherwise the connection cannot
// carry another exchange, and the reader sees it closed and retires it.
func (nc *notifyConn) Done(keep bool) {
	if !keep {
		nc.conn.Close()
	}
	x := nc.mux
	x.mu.Lock()
	ended := x.conns == nil
	nc.held = false
	x.mu.Unlock()
	if ended {
		nc.conn.Close()
		return
	}
	nc.resume <- struct{}{}
}

func (*notifyConn) Charge(int) {}
