package signaling

import (
	"errors"
	"fmt"
	"math"
	"time"

	"xunet/internal/atm"
	"xunet/internal/sigmsg"
	"xunet/internal/trace"
)

// The client half of the application-signaling protocol: the user
// library of §7.1 and §8, written once over a transport, as Sighost is
// written once over Env. internal/ulib is the kern.Proc transport (the
// paper's IPC, a connection per exchange), rtclient.go the net.Conn one
// (a held connection, parked notify connections). Connection reuse,
// context-switch charging and who owns a notify connection between
// exchanges are the transport's; the messages, the retry rule, the
// deadlines and the checks on every reply are here.

// Errors from the library, in either mode. Every error a verb returns
// matches one of these, or is the transport's own (a notify port in use);
// the entity's reason, when it gave one, is in the text.
var (
	ErrFailed    = errors.New("ulib: connection failed")          // CONN_FAILED
	ErrProtocol  = errors.New("ulib: unexpected signaling reply") // SIG_ERROR, or a reply of the wrong kind
	ErrSignaling = errors.New("ulib: signaling entity unreachable")
	ErrTimeout   = errors.New("ulib: timed out awaiting signaling")
)

// TimeoutError is the error behind ErrTimeout: which exchange expired,
// on which (1-based) attempt, after how long.
type TimeoutError struct {
	Op      string
	Attempt int
	Waited  time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%v (%s, attempt %d, waited %v)", ErrTimeout, e.Op, e.Attempt, e.Waited)
}

// Is makes errors.Is(err, ErrTimeout) true for every TimeoutError.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Timeouts configures the library's deadlines and retry policy.
type Timeouts struct {
	RPC       time.Duration // each request/reply exchange, and Accept's wait for VCI_FOR_CONN
	Establish time.Duration // the wait for VCI_FOR_CONN or CONN_FAILED after REQ_ID
	// Attempts is the total number of tries of an idempotent request.
	// CONNECT_REQ allocates a cookie and is sent once; the entities' own
	// retransmission layer owns its delivery.
	Attempts int
	// Backoff is the sleep before the second attempt; it doubles per
	// attempt, capped at MaxBackoff.
	Backoff, MaxBackoff time.Duration
}

// DefaultTimeouts returns the library's historical behaviour: one-minute
// deadlines, a single attempt. Experiment E5's stall measurements depend
// on these defaults staying put.
func DefaultTimeouts() Timeouts {
	return Timeouts{RPC: time.Minute, Establish: time.Minute, Attempts: 1,
		Backoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

// Or fills t's zero fields from d.
func (t Timeouts) Or(d Timeouts) Timeouts {
	t.RPC, t.Establish = or(t.RPC, d.RPC), or(t.Establish, d.Establish)
	t.Backoff, t.MaxBackoff = or(t.Backoff, d.Backoff), or(t.MaxBackoff, d.MaxBackoff)
	t.Attempts = or(t.Attempts, d.Attempts)
	return t
}

func or[V int | time.Duration](v, d V) V {
	if v > 0 {
		return v
	}
	return d
}

// Transport is what the library needs of its host to reach the entity.
// Exchange sends m and returns the reply: ErrTimeout itself when none
// came within wait, else a failure matching ErrSignaling (unreachable)
// or ErrProtocol (undecodable). Now is the clock a wait across several
// notifications keeps one deadline on.
type Transport interface {
	Exchange(m sigmsg.Msg, wait time.Duration) (sigmsg.Msg, error)
	Sleep(d time.Duration) // before a retry
	Now() time.Duration
}

// Notifier is a notify endpoint, where the entity delivers INCOMING_CONN,
// VCI_FOR_CONN and CONN_FAILED. Next waits up to wait (without bound when
// wait < 0) for the next notification and hands over the connection it
// came on, or returns ErrTimeout itself.
type Notifier interface {
	Next(wait time.Duration) (Notice, sigmsg.Msg, error)
	Close() // releases what the library opened for the endpoint
}

// Notice is the connection one notification came on, the library's until
// Done. Recv fails as Exchange does.
type Notice interface {
	Send(m sigmsg.Msg) error
	Recv(wait time.Duration) (sigmsg.Msg, error)
	// Done ends the library's turn; keep says the exchange completed and
	// the connection may carry the endpoint's next notification.
	Done(keep bool)
	Charge(n int) // context switches; real mode ignores them, as it does Env.Charge
}

// Client is the library over one transport, made per call. It is
// generic, not an interface, so a transport value holding a process and
// an address is never boxed on a call's path.
type Client[T Transport] struct {
	Transport T
	Timeouts  Timeouts
}

// idempotent reports whether a request may safely be sent twice: the
// entity's handler overwrites (export), deletes (unexport, cancel) or
// only reads (management query) state.
func idempotent(k sigmsg.Kind) bool {
	switch k {
	case sigmsg.KindExportSrv, sigmsg.KindUnexportSrv, sigmsg.KindCancelReq, sigmsg.KindMgmtQuery:
		return true
	}
	return false
}

// call performs one request/reply exchange and requires a reply of kind
// want. An idempotent request is sent up to Attempts times, with capped
// exponential backoff, while the entity is unreachable or the reply
// deadline expires.
func (c Client[T]) call(m sigmsg.Msg, want sigmsg.Kind) (sigmsg.Msg, error) {
	attempts := 1
	if idempotent(m.Kind) {
		attempts = c.Timeouts.Attempts
	}
	backoff := c.Timeouts.Backoff
	for a := 1; ; a++ {
		reply, err := c.Transport.Exchange(m, c.Timeouts.RPC)
		switch {
		case err == ErrTimeout:
			err = &TimeoutError{Op: m.Kind.String(), Attempt: a, Waited: c.Timeouts.RPC}
		case err != nil:
		case reply.Kind == sigmsg.KindError:
			return reply, fmt.Errorf("%w: %s", ErrProtocol, reply.Reason)
		case reply.Kind != want:
			return reply, fmt.Errorf("%w: %v", ErrProtocol, reply.Kind)
		default:
			return reply, nil
		}
		if a >= attempts || !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrSignaling) {
			return reply, err
		}
		c.Transport.Sleep(backoff)
		backoff = min(2*backoff, c.Timeouts.MaxBackoff)
	}
}

// ExportService registers a service name (export_service, Figure 5);
// notifyPort is where the server listens for INCOMING_CONN.
func (c Client[T]) ExportService(name string, notifyPort uint16) error {
	_, err := c.call(sigmsg.Msg{Kind: sigmsg.KindExportSrv, Service: name, NotifyPort: notifyPort}, sigmsg.KindServiceRegs)
	return err
}

// UnexportService cancels a registration.
func (c Client[T]) UnexportService(name string) error {
	_, err := c.call(sigmsg.Msg{Kind: sigmsg.KindUnexportSrv, Service: name}, sigmsg.KindServiceRegs)
	return err
}

// Query performs a management query (§5.1) and returns the rendered
// body. callID names a per-call view's call; n overrides a trace view's
// event count (riding in the unused cookie field, so at most 65 535; 0
// is the default).
func (c Client[T]) Query(what string, callID uint32, n int) (string, error) {
	reply, err := c.call(sigmsg.Msg{Kind: sigmsg.KindMgmtQuery, Service: what, CallID: callID, Cookie: uint16(min(n, math.MaxUint16))}, sigmsg.KindMgmtReply)
	if err != nil {
		return "", err
	}
	return reply.Comment, nil
}

// CancelRequest cancels an outstanding connect request by cookie.
func (c Client[T]) CancelRequest(cookie uint16) error {
	_, err := c.call(sigmsg.Msg{Kind: sigmsg.KindCancelReq, Cookie: cookie}, sigmsg.KindCancelReq)
	return err
}

// Connection is an established client-side circuit.
type Connection struct {
	VCI    atm.VCI
	Cookie uint16
	QoS    string // negotiated (possibly modified by the server)
	// Trace is the call's root trace context from VCI_FOR_CONN (zero when
	// unsampled): pfxunet.Socket.SetTrace joins data frames to the call.
	Trace trace.Context
}

// OpenConnection requests a circuit to <dest, service, qos> and waits
// until it is established or fails (open_connection, Figure 6):
// OpenConnectionAsync then Await, without the record between them. n
// listens on notifyPort and is closed on return; pid names the
// requesting process, whose death cancels the request.
func (c Client[T]) OpenConnection(n Notifier, dest atm.Addr, service string, notifyPort uint16, comment, qosStr string, pid uint32) (*Connection, error) {
	cookie, err := c.request(n, dest, service, notifyPort, comment, qosStr, pid)
	if err != nil {
		return nil, err
	}
	return c.await(n, cookie)
}

// PendingConnection is a connect request in flight: the non-blocking
// open_connection the paper says "would be straightforward to provide".
type PendingConnection struct {
	Cookie uint16
	c      Client[Transport]
	n      Notifier
}

// OpenConnectionAsync sends CONNECT_REQ and returns once REQ_ID arrives.
// The caller may do other work, then Await the circuit or Cancel it.
func (c Client[T]) OpenConnectionAsync(n Notifier, dest atm.Addr, service string, notifyPort uint16, comment, qosStr string, pid uint32) (*PendingConnection, error) {
	cookie, err := c.request(n, dest, service, notifyPort, comment, qosStr, pid)
	if err != nil {
		return nil, err
	}
	return &PendingConnection{Cookie: cookie, c: Client[Transport]{c.Transport, c.Timeouts}, n: n}, nil
}

// Await waits until the circuit is established or fails.
func (pc *PendingConnection) Await() (*Connection, error) { return pc.c.await(pc.n, pc.Cookie) }

// Cancel withdraws the request.
func (pc *PendingConnection) Cancel() error {
	pc.n.Close()
	return pc.c.CancelRequest(pc.Cookie)
}

// request sends CONNECT_REQ and returns the cookie REQ_ID names the
// request by; on failure it closes n.
func (c Client[T]) request(n Notifier, dest atm.Addr, service string, notifyPort uint16, comment, qosStr string, pid uint32) (uint16, error) {
	reply, err := c.call(sigmsg.Msg{
		Kind: sigmsg.KindConnectReq, Dest: dest, Service: service,
		QoS: qosStr, NotifyPort: notifyPort, Comment: comment, PID: pid,
	}, sigmsg.KindReqID)
	if err != nil {
		n.Close()
	}
	return reply.Cookie, err
}

// await waits on n for request cookie's outcome, then closes n. A
// notification for another cookie is the outcome of a request the
// endpoint gave up on, and is passed over. With no outcome by the
// deadline the request is canceled, so no entity holds a call its caller
// has given up on.
func (c Client[T]) await(n Notifier, cookie uint16) (*Connection, error) {
	defer n.Close()
	deadline := c.Transport.Now() + c.Timeouts.Establish
	for {
		nt, m, err := n.Next(max(deadline-c.Transport.Now(), 0))
		if err == ErrTimeout {
			_ = c.CancelRequest(cookie)
			return nil, &TimeoutError{Op: "open_connection", Attempt: 1, Waited: c.Timeouts.Establish}
		}
		if err != nil {
			return nil, err
		}
		nt.Charge(1) // the kernel handed the notification up
		outcome := m.Kind == sigmsg.KindVCIForConn || m.Kind == sigmsg.KindConnFailed
		nt.Done(outcome) // the one frame was the whole exchange
		switch {
		case !outcome:
			return nil, fmt.Errorf("%w: %v", ErrProtocol, m.Kind)
		case m.Cookie != cookie:
			continue
		case m.Kind == sigmsg.KindConnFailed:
			return nil, fmt.Errorf("%w: %s", ErrFailed, m.Reason)
		}
		return &Connection{VCI: m.VCI, Cookie: cookie, QoS: m.QoS,
			Trace: trace.Context{Trace: m.TraceID, Span: m.SpanID}}, nil
	}
}

// ServiceRequest is one incoming call awaiting the server's decision:
// the cookie that is the coming circuit's capability, and the client's
// requested QoS and free-form comment.
type ServiceRequest struct {
	Cookie                uint16
	QoS, Comment, Service string
	// ReplyTimeout bounds Accept's wait for the granted VCI; the server
	// may change it before deciding.
	ReplyTimeout time.Duration
	nt           Notice
}

// AwaitRequest waits on n for the next incoming call
// (await_service_request, Figure 5), whose ReplyTimeout starts as
// replyWait. A notification that is not INCOMING_CONN is dropped.
func AwaitRequest(n Notifier, replyWait time.Duration) (*ServiceRequest, error) {
	for {
		nt, m, err := n.Next(-1)
		if err != nil {
			return nil, err
		}
		if m.Kind != sigmsg.KindIncomingConn {
			nt.Done(false)
			continue
		}
		nt.Charge(1) // the kernel handed the notification up
		return &ServiceRequest{Cookie: m.Cookie, QoS: m.QoS, Comment: m.Comment, Service: m.Service,
			ReplyTimeout: replyWait, nt: nt}, nil
	}
}

// Accept accepts the call with a possibly modified QoS and returns the
// circuit's VCI and the granted QoS (accept_connection, Figure 5).
func (r *ServiceRequest) Accept(modifiedQoS string) (atm.VCI, string, error) {
	nt := r.nt
	nt.Charge(1)
	err := nt.Send(sigmsg.Msg{Kind: sigmsg.KindAcceptConn, Cookie: r.Cookie, QoS: modifiedQoS})
	var m sigmsg.Msg
	if err == nil {
		m, err = nt.Recv(r.ReplyTimeout)
	}
	switch {
	case err == ErrTimeout:
		err = &TimeoutError{Op: "accept_connection", Attempt: 1, Waited: r.ReplyTimeout}
	case err == nil && (m.Kind != sigmsg.KindVCIForConn || m.Cookie != r.Cookie):
		err = fmt.Errorf("%w: %v %s for cookie %d", ErrProtocol, m.Kind, m.Reason, r.Cookie)
	}
	if err != nil {
		nt.Done(false)
		return 0, "", err
	}
	nt.Charge(1)
	nt.Done(true)
	return m.VCI, m.QoS, nil
}

// Reject declines the call.
func (r *ServiceRequest) Reject(reason string) error {
	r.nt.Charge(1)
	err := r.nt.Send(sigmsg.Msg{Kind: sigmsg.KindRejectConn, Cookie: r.Cookie, Reason: reason})
	r.nt.Done(err == nil)
	return err
}
