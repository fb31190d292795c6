// Package ulib is the user library of §7.1 and §8: the thin layer that
// hides the RPC message exchanges with the signaling entity so that
// porting a BSD-socket application to PF_XUNET is a matter of three or
// four extra calls.
//
// The API mirrors the paper's Figures 5 and 6:
//
//	Server (Figure 5)                      Client (Figure 6)
//	-----------------                      -----------------
//	ExportService("traffic", port)         conn, _ := OpenConnection(...)
//	l, _ := CreateReceiveConnection(port)  s, _ := PF.Socket(p)
//	req, _ := AwaitServiceRequest(l)       s.Connect(conn.VCI, conn.Cookie)
//	vci, _ := req.Accept(qos)              // client sends data
//	s, _ := PF.Socket(p); s.Bind(vci, ck)
//
// The verbs are signaling.Client's, shared with the real-TCP library;
// this package is their kern.Proc transport. Every exchange is a fresh
// IPC connection, and every RPC round trip charges the paper's four
// context switches: two at the application side (here), two in sighost.
package ulib

import (
	"errors"
	"fmt"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
)

// Timeouts configures the library's deadlines and retry policy.
type Timeouts = signaling.Timeouts

// acceptBackoff is AwaitServiceRequest's sleep while the descriptor
// table is full: the establishment stall of §10.
const acceptBackoff = 50 * time.Millisecond

// Lib binds the library to its signaling entity.
type Lib struct {
	sigIP memnet.IPAddr
	to    Timeouts
}

// New returns a library talking to the sighost at sigIP.
func New(sigIP memnet.IPAddr) *Lib { return &Lib{sigIP: sigIP, to: signaling.DefaultTimeouts()} }

// SetTimeouts overrides the library's deadlines and retry policy; zero
// fields keep their defaults.
func (l *Lib) SetTimeouts(t Timeouts) { l.to = t.Or(signaling.DefaultTimeouts()) }

// Client is the protocol client p's verbs run over. Query (the §5.1
// management views) and CancelRequest have no wrapper here: call them
// on Client(p).
func (l *Lib) Client(p *kern.Proc) signaling.Client[procTransport] {
	return signaling.Client[procTransport]{Transport: procTransport{p, l.sigIP}, Timeouts: l.to}
}

// ExportService registers a service whose calls arrive at notifyPort.
func (l *Lib) ExportService(p *kern.Proc, name string, notifyPort uint16) error {
	return l.Client(p).ExportService(name, notifyPort)
}

// UnexportService cancels a registration.
func (l *Lib) UnexportService(p *kern.Proc, name string) error {
	return l.Client(p).UnexportService(name)
}

// CreateReceiveConnection opens the socket the entity connects to when
// a call arrives.
func (l *Lib) CreateReceiveConnection(p *kern.Proc, port uint16) (*kern.KListener, error) {
	return p.Listen(port)
}

// AwaitServiceRequest blocks until the entity forwards an incoming call.
func (l *Lib) AwaitServiceRequest(p *kern.Proc, kl *kern.KListener) (*signaling.ServiceRequest, error) {
	return signaling.AwaitRequest(listener{kl}, l.to.RPC)
}

// OpenConnection requests a circuit to <dest, service, qos> and blocks
// until it is established or fails; the outcome arrives at notifyPort.
func (l *Lib) OpenConnection(p *kern.Proc, dest atm.Addr, service string, notifyPort uint16, comment, qosStr string) (*signaling.Connection, error) {
	kl, err := p.Listen(notifyPort)
	if err != nil {
		return nil, err
	}
	return l.Client(p).OpenConnection(listener{kl}, dest, service, notifyPort, comment, qosStr, p.PID)
}

// OpenConnectionAsync is OpenConnection returning once REQ_ID arrives.
func (l *Lib) OpenConnectionAsync(p *kern.Proc, dest atm.Addr, service string, notifyPort uint16, comment, qosStr string) (*signaling.PendingConnection, error) {
	kl, err := p.Listen(notifyPort)
	if err != nil {
		return nil, err
	}
	return l.Client(p).OpenConnectionAsync(listener{kl}, dest, service, notifyPort, comment, qosStr, p.PID)
}

// procTransport is one process's exchanges with the entity, each over a
// fresh IPC connection.
type procTransport struct {
	p     *kern.Proc
	sigIP memnet.IPAddr
}

func (t procTransport) Exchange(m sigmsg.Msg, wait time.Duration) (sigmsg.Msg, error) {
	t.p.ContextSwitches(1) // application to kernel
	ks, err := t.p.Dial(t.sigIP, signaling.SigPort)
	if err != nil {
		return sigmsg.Msg{}, fmt.Errorf("%w: %v", signaling.ErrSignaling, err)
	}
	defer ks.Close()
	if err := send(ks, &m); err != nil {
		return sigmsg.Msg{}, err
	}
	reply, err := recv(ks, wait)
	if err == nil {
		t.p.ContextSwitches(1) // kernel to application
	}
	return reply, err
}

func (t procTransport) Sleep(d time.Duration) { t.p.SP.Sleep(d) }

func (t procTransport) Now() time.Duration { return t.p.SP.Now() }

// listener is a notify endpoint: a listening socket the entity connects
// to once per notification.
type listener struct{ kl *kern.KListener }

// Next accepts the entity's next connection and reads its one message.
// A server (no bound) rides out a full descriptor table and connections
// that fail before their message. For a client awaiting its outcome a
// failed accept is ErrTimeout, so the request is canceled; a connection
// that fails before its message leaves no request to cancel.
func (n listener) Next(wait time.Duration) (signaling.Notice, sigmsg.Msg, error) {
	for {
		ks, err := n.kl.AcceptTimeout(wait)
		switch {
		case err == nil:
		case wait >= 0:
			return nil, sigmsg.Msg{}, signaling.ErrTimeout
		case errors.Is(err, kern.ErrEMFILE):
			n.kl.Proc().SP.Sleep(acceptBackoff)
			continue
		default:
			return nil, sigmsg.Msg{}, err
		}
		m, err := recv(ks, wait)
		if err == nil {
			return stream{ks}, m, nil
		}
		ks.Close()
		if wait >= 0 {
			return nil, sigmsg.Msg{}, fmt.Errorf("%w: notify connection: %v", signaling.ErrSignaling, err)
		}
	}
}

func (n listener) Close() { n.kl.Close() }

// stream is the connection one notification came on. The entity opened
// it for that exchange alone, so Done closes it either way.
type stream struct{ ks *kern.KStream }

func (s stream) Send(m sigmsg.Msg) error { return send(s.ks, &m) }

func (s stream) Recv(wait time.Duration) (sigmsg.Msg, error) { return recv(s.ks, wait) }

func (s stream) Done(bool) { s.ks.Close() }

func (s stream) Charge(n int) { s.ks.Proc().ContextSwitches(n) }

// send writes one message from stack scratch: typical signaling messages
// fit, and Send copies the frame before returning.
func send(ks *kern.KStream, m *sigmsg.Msg) error {
	var sbuf [128]byte
	if err := ks.Send(m.AppendTo(sbuf[:0])); err != nil {
		return fmt.Errorf("%w: %v", signaling.ErrSignaling, err)
	}
	return nil
}

// recv reads one message within wait (without bound when wait < 0).
func recv(ks *kern.KStream, wait time.Duration) (sigmsg.Msg, error) {
	raw, ok, timedOut := ks.RecvTimeout(wait)
	if timedOut {
		return sigmsg.Msg{}, signaling.ErrTimeout
	}
	if !ok {
		return sigmsg.Msg{}, signaling.ErrSignaling
	}
	m, err := sigmsg.Decode(raw)
	if err != nil {
		return sigmsg.Msg{}, fmt.Errorf("%w: %v", signaling.ErrProtocol, err)
	}
	return m, nil
}
