package signaling

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"xunet/internal/atm"
	"xunet/internal/sigmsg"
)

// ErrRPCTimeout is the sentinel for real-TCP signaling timeouts; the
// concrete error is always an *RPCTimeoutError carrying peer/attempt
// context, and errors.Is(err, ErrRPCTimeout) matches it.
var ErrRPCTimeout = errors.New("signaling: rpc timed out")

// RPCTimeoutError records which daemon an RPC was waiting on, which
// operation, on which attempt, and the expired deadline.
type RPCTimeoutError struct {
	Peer    string
	Op      string
	Attempt int
	Waited  time.Duration
}

func (e *RPCTimeoutError) Error() string {
	return fmt.Sprintf("signaling: rpc timed out (%s to %s, attempt %d, waited %v)",
		e.Op, e.Peer, e.Attempt, e.Waited)
}

// Is makes errors.Is(err, ErrRPCTimeout) true for every RPCTimeoutError.
func (e *RPCTimeoutError) Is(target error) bool { return target == ErrRPCTimeout }

// RealClient is the user library for the real-TCP deployment: the same
// RPC exchanges as internal/ulib, spoken to a RealHost daemon over the
// loopback (or any) network. cmd/sigdemo and the realtime tests use it.
//
// The zero value keeps the legacy fixed deadlines (5 s dial, 10 s
// reply, 15 s establish, single attempt); set the timeout fields to
// override, and Attempts > 1 to retry idempotent RPCs with capped
// exponential backoff.
//
// A client holds one connection to the daemon across RPCs (dialed on
// first use, again after any failure) and serializes RPCs on it, so it
// must not be copied after first use; Close releases the connection.
type RealClient struct {
	// SighostAddr is the daemon's TCP address ("127.0.0.1:3177").
	SighostAddr string

	// DialTimeout bounds each TCP connect to the daemon (default 5s).
	DialTimeout time.Duration
	// ReplyTimeout bounds each RPC reply read (default 10s).
	ReplyTimeout time.Duration
	// EstablishTimeout bounds the wait for the asynchronous
	// establishment notification in OpenConnection (default 15s).
	EstablishTimeout time.Duration
	// Attempts is the total tries for idempotent RPCs — export,
	// unexport, cancel, management queries (default 1). CONNECT_REQ is
	// never retried: it allocates a cookie on the daemon.
	Attempts int
	// Backoff is the sleep before the second attempt, doubling per
	// attempt up to MaxBackoff (defaults 100ms / 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration

	mu   sync.Mutex // one RPC at a time on conn
	conn *rpcConn
	wbuf []byte
	rbuf []byte
	dec  sigmsg.Decoder
}

// rpcConn is the client's held connection; replied records whether any
// byte of the reply being waited for has arrived.
type rpcConn struct {
	net.Conn
	replied bool
}

func (r *rpcConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	if n > 0 {
		r.replied = true
	}
	return n, err
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

func (c *RealClient) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return 5 * time.Second
}

func (c *RealClient) replyTimeout() time.Duration {
	if c.ReplyTimeout > 0 {
		return c.ReplyTimeout
	}
	return 10 * time.Second
}

func (c *RealClient) establishTimeout() time.Duration {
	if c.EstablishTimeout > 0 {
		return c.EstablishTimeout
	}
	return 15 * time.Second
}

// rpc performs a request/reply exchange, retrying idempotent kinds on
// dial failure or reply timeout with capped exponential backoff.
func (c *RealClient) rpc(m sigmsg.Msg) (sigmsg.Msg, error) {
	attempts := 1
	switch m.Kind {
	case sigmsg.KindExportSrv, sigmsg.KindUnexportSrv, sigmsg.KindCancelReq, sigmsg.KindMgmtQuery:
		if c.Attempts > 1 {
			attempts = c.Attempts
		}
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 2 * time.Second
	}
	var lastErr error
	for a := 1; a <= attempts; a++ {
		reply, err := c.rpcOnce(m, a)
		if err == nil || !retryableNetErr(err) {
			return reply, err
		}
		lastErr = err
		if a < attempts {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
	return sigmsg.Msg{}, lastErr
}

// retryableNetErr reports whether an RPC attempt failed in a way a
// retry can fix: the daemon was unreachable or the exchange timed out —
// as opposed to a protocol-level refusal.
func retryableNetErr(err error) bool {
	if errors.Is(err, ErrRPCTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// rpcOnce performs one request/reply exchange on the held connection,
// dialing when there is none. Any failure discards the connection. A
// request is sent a second time, on a new connection, only when it went
// out on a connection kept from an earlier RPC and that connection failed
// before one byte of reply: the daemon had hung up on an idle connection
// (a restart), so no live daemon has acted on the request — which is what
// lets CONNECT_REQ, never retried otherwise, survive a daemon restart.
func (c *RealClient) rpcOnce(m sigmsg.Msg, attempt int) (sigmsg.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// appendFrame builds prefix+body in one scratch so the request is one
	// Write.
	c.wbuf = appendFrame(c.wbuf[:0], &m)
	kept := c.conn != nil
	for {
		if c.conn == nil {
			conn, err := net.DialTimeout("tcp", c.SighostAddr, c.dialTimeout())
			if err != nil {
				return sigmsg.Msg{}, err
			}
			c.conn = &rpcConn{Conn: conn}
		}
		conn := c.conn
		conn.replied = false
		_, err := conn.Write(c.wbuf)
		if err == nil {
			conn.SetReadDeadline(time.Now().Add(c.replyTimeout()))
			c.rbuf, err = readFrameInto(conn, c.rbuf)
		}
		if err == nil {
			break
		}
		c.drop()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return sigmsg.Msg{}, &RPCTimeoutError{Peer: c.SighostAddr, Op: m.Kind.String(), Attempt: attempt, Waited: c.replyTimeout()}
		}
		if !kept || conn.replied {
			return sigmsg.Msg{}, err
		}
		kept = false
	}
	var reply sigmsg.Msg
	if err := c.dec.DecodeInto(&reply, c.rbuf); err != nil {
		c.drop()
		return sigmsg.Msg{}, err
	}
	if reply.Kind == sigmsg.KindError {
		return reply, errors.New("sighost: " + reply.Reason)
	}
	return reply, nil
}

// ExportService registers a service, with notifications delivered to
// the given local TCP port.
func (c *RealClient) ExportService(name string, notifyPort uint16) error {
	reply, err := c.rpc(sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: name, NotifyPort: notifyPort})
	if err != nil {
		return err
	}
	if reply.Kind != sigmsg.KindServiceRegs {
		return fmt.Errorf("sighost: unexpected reply %v", reply.Kind)
	}
	return nil
}

// notifyMux is the application's end of the daemon's notify connections.
// The daemon keeps a connection to a notify port open after the exchange
// it dialed it for and sends that endpoint's next notification on it, so
// the next notification on a listener may be a new connection or the
// next frame of one accepted long ago. One accept loop per listener and
// one reader per accepted connection turn both into the same thing: a
// connection offering exactly one decoded frame on ready. Whoever takes
// it owns the connection — nothing else reads it — until park gives it
// back to its reader or drop closes it. Closing the listener ends the
// mux: waiters get Accept's error, parked connections are closed, and
// every goroutine exits.
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
		nc := &notifyConn{mux: x, conn: conn, resume: make(chan struct{}, 1)}
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

// next waits for the next notification on the listener; a nil timeout
// waits until the listener closes.
func (x *notifyMux) next(timeout <-chan time.Time) (*notifyConn, error) {
	select {
	case nc := <-x.ready:
		return nc, nil
	case <-x.done:
		return nil, x.err
	case <-timeout:
		return nil, errNotifyTimeout
	}
}

var errNotifyTimeout = errors.New("signaling: no notification in time")

// read is the connection's reader: one frame, offer it, wait to be
// parked, again. It exits when the connection fails or the mux ends.
func (nc *notifyConn) read() {
	x := nc.mux
	for {
		var err error
		if nc.buf, err = readFrameInto(nc.conn, nc.buf); err == nil {
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

// park ends the owner's turn with the exchange complete: the reader
// waits for the daemon's next notification on the connection.
func (nc *notifyConn) park() {
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

// drop ends the owner's turn on a connection that cannot carry another
// exchange; the reader sees it closed and retires it.
func (nc *notifyConn) drop() {
	nc.conn.Close()
	nc.park()
}

// RealRequest is an incoming call delivered to a real server.
type RealRequest struct {
	Cookie  uint16
	QoS     string
	Comment string
	Service string
	// ReplyTimeout bounds Accept's wait for the granted VCI (default
	// 10s); the server may set it before deciding.
	ReplyTimeout time.Duration
	nc           *notifyConn
}

// AwaitServiceRequest waits for one incoming-connection notification on
// the listener. The first call on a listener takes over accepting from
// it; closing the listener is what stops that.
func AwaitServiceRequest(l net.Listener) (*RealRequest, error) {
	nc, err := muxFor(l).next(nil)
	if err != nil {
		return nil, err
	}
	m := &nc.msg
	if m.Kind != sigmsg.KindIncomingConn {
		nc.drop()
		return nil, fmt.Errorf("sighost: unexpected notification %v", m.Kind)
	}
	return &RealRequest{Cookie: m.Cookie, QoS: m.QoS, Comment: m.Comment, Service: m.Service, nc: nc}, nil
}

// Accept accepts the call and returns the granted VCI and QoS.
func (r *RealRequest) Accept(modifiedQoS string) (atm.VCI, string, error) {
	nc := r.nc
	accept := sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: r.Cookie, QoS: modifiedQoS}
	nc.buf = appendFrame(nc.buf[:0], &accept)
	if _, err := nc.conn.Write(nc.buf); err != nil {
		nc.drop()
		return 0, "", err
	}
	wait := r.ReplyTimeout
	if wait <= 0 {
		wait = 10 * time.Second
	}
	nc.conn.SetReadDeadline(time.Now().Add(wait))
	var err error
	if nc.buf, err = readFrameInto(nc.conn, nc.buf); err != nil {
		nc.drop()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return 0, "", &RPCTimeoutError{Peer: "sighost", Op: "accept_connection", Attempt: 1, Waited: wait}
		}
		return 0, "", err
	}
	m := &nc.msg
	if err := nc.dec.DecodeInto(m, nc.buf); err != nil || m.Kind != sigmsg.KindVCIForConn || m.Cookie != r.Cookie {
		nc.drop()
		return 0, "", fmt.Errorf("sighost: expected VCI_FOR_CONN for cookie %d, got %v", r.Cookie, m)
	}
	vci, granted := m.VCI, m.QoS
	nc.conn.SetReadDeadline(time.Time{})
	nc.park()
	return vci, granted, nil
}

// Reject declines the call.
func (r *RealRequest) Reject(reason string) error {
	nc := r.nc
	reject := sigmsg.Msg{Kind: sigmsg.KindRejectConn, Cookie: r.Cookie, Reason: reason}
	nc.buf = appendFrame(nc.buf[:0], &reject)
	if _, err := nc.conn.Write(nc.buf); err != nil {
		nc.drop()
		return err
	}
	nc.park()
	return nil
}

// RealConnection is an established client-side circuit.
type RealConnection struct {
	VCI    atm.VCI
	Cookie uint16
	QoS    string
}

// OpenConnection requests a circuit and blocks until established.
// notifyListener must already be listening on the port passed here; the
// first call on a listener takes over accepting from it. One call at a
// time per listener: a notification for another request's cookie is
// taken for a stale one and skipped.
func (c *RealClient) OpenConnection(dest atm.Addr, service string, notifyListener net.Listener, notifyPort uint16, comment, qosStr string) (*RealConnection, error) {
	reply, err := c.rpc(sigmsg.Msg{
		Kind: sigmsg.KindConnectReq, Dest: dest, Service: service,
		QoS: qosStr, NotifyPort: notifyPort, Comment: comment,
	})
	if err != nil {
		return nil, err
	}
	if reply.Kind != sigmsg.KindReqID {
		return nil, fmt.Errorf("sighost: expected REQ_ID, got %v", reply.Kind)
	}
	cookie := reply.Cookie
	mux := muxFor(notifyListener)
	timeout := time.NewTimer(c.establishTimeout())
	defer timeout.Stop()
	for {
		nc, err := mux.next(timeout.C)
		if err == errNotifyTimeout {
			return nil, &RPCTimeoutError{Peer: string(dest), Op: "open_connection", Attempt: 1, Waited: c.establishTimeout()}
		}
		if err != nil {
			return nil, fmt.Errorf("sighost: no establishment notification: %w", err)
		}
		m := nc.msg
		if m.Kind != sigmsg.KindVCIForConn && m.Kind != sigmsg.KindConnFailed {
			nc.drop()
			return nil, fmt.Errorf("sighost: unexpected %v", m.Kind)
		}
		nc.park() // the one frame was the whole exchange
		if m.Cookie != cookie {
			continue // the outcome of a request this listener gave up on
		}
		if m.Kind == sigmsg.KindConnFailed {
			return nil, errors.New("sighost: " + m.Reason)
		}
		return &RealConnection{VCI: m.VCI, Cookie: cookie, QoS: m.QoS}, nil
	}
}

// Query performs a management query ("services", "calls", "stats",
// "stats.json", "trace", "trace.json", "lists") and returns the rendered
// body.
func (c *RealClient) Query(what string) (string, error) { return c.QueryN(what, 0) }

// QueryN is Query with an event-count override for trace queries (the
// count rides in the otherwise-unused Cookie field; 0 means the default).
func (c *RealClient) QueryN(what string, n int) (string, error) {
	reply, err := c.rpc(sigmsg.Msg{Kind: sigmsg.KindMgmtQuery, Service: what, Cookie: uint16(n)})
	if err != nil {
		return "", err
	}
	if reply.Kind != sigmsg.KindMgmtReply {
		return "", fmt.Errorf("sighost: unexpected reply %v", reply.Kind)
	}
	return reply.Comment, nil
}

// QueryCall performs a management query that targets one call by ID
// ("calltrace", "calltrace.json") and returns the rendered body.
func (c *RealClient) QueryCall(what string, callID uint32) (string, error) {
	reply, err := c.rpc(sigmsg.Msg{Kind: sigmsg.KindMgmtQuery, Service: what, CallID: callID})
	if err != nil {
		return "", err
	}
	if reply.Kind != sigmsg.KindMgmtReply {
		return "", fmt.Errorf("sighost: unexpected reply %v", reply.Kind)
	}
	return reply.Comment, nil
}

// CancelRequest cancels an outstanding request by cookie.
func (c *RealClient) CancelRequest(cookie uint16) error {
	reply, err := c.rpc(sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: cookie})
	if err != nil {
		return err
	}
	if reply.Kind != sigmsg.KindCancelReq {
		return fmt.Errorf("sighost: unexpected reply %v", reply.Kind)
	}
	return nil
}
