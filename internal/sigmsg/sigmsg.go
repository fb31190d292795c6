// Package sigmsg defines the signaling protocol messages and their wire
// encoding: the application–signaling RPC messages of Figures 3 and 4
// (EXPORT_SRV, SERVICE_REGS, INCOMING_CONN, ACCEPT_CONN, REJECT_CONN,
// VCI_FOR_CONN, CONNECT_REQ, REQ_ID, CANCEL_REQ) plus the
// sighost-to-sighost call-control messages that ride the signaling PVC
// (SETUP, SETUP_ACK, SETUP_REJ, CONNECT_DONE, RELEASE).
//
// Messages travel as length-delimited binary frames over reliable
// streams (the paper's TCP IPC) or as AAL frames on the peer PVC. The
// QoS descriptor travels as an uninterpreted string, exactly as the
// paper specifies, so the signaling layer never depends on its grammar.
package sigmsg

import (
	"errors"
	"fmt"

	"xunet/internal/atm"
)

// Kind identifies a message type.
type Kind uint8

// Application-signaling messages (Figures 3 and 4).
const (
	// KindExportSrv registers a service: Service, NotifyPort.
	KindExportSrv Kind = iota + 1
	// KindServiceRegs acknowledges registration: Service.
	KindServiceRegs
	// KindUnexportSrv cancels a registration: Service.
	KindUnexportSrv
	// KindIncomingConn notifies a server of a call: Service, Cookie,
	// QoS, Comment.
	KindIncomingConn
	// KindAcceptConn accepts a call with possibly modified QoS: Cookie,
	// QoS, Comment.
	KindAcceptConn
	// KindRejectConn declines a call: Cookie, Reason.
	KindRejectConn
	// KindVCIForConn delivers the established circuit: Cookie, VCI, QoS.
	KindVCIForConn
	// KindConnectReq asks for a call: Dest, Service, QoS, NotifyPort,
	// Comment.
	KindConnectReq
	// KindReqID acknowledges a connect request with its cookie: Cookie.
	KindReqID
	// KindCancelReq cancels an outstanding request: Cookie.
	KindCancelReq
	// KindConnFailed reports an asynchronous call failure: Cookie,
	// Reason.
	KindConnFailed
	// KindError reports a synchronous protocol error: Reason.
	KindError
	// KindMgmtQuery asks the signaling entity for management state
	// (§5.1: "Signaling state information is easily available and can
	// be used by network management software"): Service selects the
	// query ("services", "calls", "stats", "lists").
	KindMgmtQuery
	// KindMgmtReply returns the rendered state: Comment.
	KindMgmtReply
)

// Peer sighost-to-sighost messages.
const (
	// KindSetup opens a call: CallID, Src, Dest, Service, QoS, Comment.
	KindSetup Kind = iota + 64
	// KindSetupAck reports server acceptance: CallID, QoS (negotiated).
	KindSetupAck
	// KindSetupRej reports rejection: CallID, Reason.
	KindSetupRej
	// KindConnectDone carries the programmed circuit: CallID, VCI (the
	// VCI at the destination side), QoS.
	KindConnectDone
	// KindRelease tears a call down: CallID, Reason.
	KindRelease
	// KindPeerAck acknowledges receipt of a reliable peer message: Seq,
	// Epoch. Acks are themselves unreliable — a lost ack is repaired by
	// the sender's retransmission, which the receiver deduplicates.
	KindPeerAck
	// KindKeepalive probes peer liveness: Epoch. Sent only while calls
	// or unacknowledged messages exist toward the peer; any traffic from
	// the peer (keepalives included) refreshes its liveness deadline.
	KindKeepalive
)

var kindNames = map[Kind]string{
	KindExportSrv:    "EXPORT_SRV",
	KindServiceRegs:  "SERVICE_REGS",
	KindUnexportSrv:  "UNEXPORT_SRV",
	KindIncomingConn: "INCOMING_CONN",
	KindAcceptConn:   "ACCEPT_CONN",
	KindRejectConn:   "REJECT_CONN",
	KindVCIForConn:   "VCI_FOR_CONN",
	KindConnectReq:   "CONNECT_REQ",
	KindReqID:        "REQ_ID",
	KindCancelReq:    "CANCEL_REQ",
	KindConnFailed:   "CONN_FAILED",
	KindError:        "SIG_ERROR",
	KindMgmtQuery:    "MGMT_QUERY",
	KindMgmtReply:    "MGMT_REPLY",
	KindSetup:        "SETUP",
	KindSetupAck:     "SETUP_ACK",
	KindSetupRej:     "SETUP_REJ",
	KindConnectDone:  "CONNECT_DONE",
	KindRelease:      "RELEASE",
	KindPeerAck:      "PEER_ACK",
	KindKeepalive:    "KEEPALIVE",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Msg is one signaling message. Fields not used by a kind are zero.
type Msg struct {
	Kind       Kind
	Service    string
	Dest       atm.Addr
	Src        atm.Addr
	QoS        string // uninterpreted QoS descriptor
	Comment    string
	Reason     string
	Cookie     uint16
	VCI        atm.VCI
	NotifyPort uint16
	CallID     uint32
	// FromOrigin disambiguates peer messages: call IDs are scoped to
	// the originating sighost, so a RELEASE must say whether its sender
	// originated the call (true) or served its destination (false).
	FromOrigin bool
	// PID identifies the requesting process on CONNECT_REQ, so the
	// kernel's termination indication can cancel the process's
	// outstanding requests (§7.2: "the termination indication is needed
	// to allow sighost to inform the remote router (or host) that the
	// client (or server) no longer exists").
	PID uint32
	// TraceID/SpanID propagate the causal trace context across the wire:
	// SETUP carries the origin's peer span so the destination's work
	// nests under it, CONNECT_DONE and VCI_FOR_CONN carry the call's
	// root span. Zero means the call is untraced or unsampled.
	TraceID uint64
	SpanID  uint64
	// Seq/Epoch implement reliable peer delivery. Seq numbers each
	// sighost-to-sighost message per destination (0 means the sender ran
	// without reliability — the receiver passes it through unsequenced).
	// Epoch is the sender's incarnation: it bumps on crash-recovery so a
	// receiver can discard stale retransmissions from before the crash
	// and reset its duplicate-detection window for the new life.
	Seq   uint32
	Epoch uint32
}

// String renders the message for traces, in the style of the paper's
// message sequence figures.
func (m Msg) String() string {
	s := m.Kind.String()
	if m.Service != "" {
		s += " svc=" + m.Service
	}
	if m.Dest != "" {
		s += " dest=" + string(m.Dest)
	}
	if m.Cookie != 0 {
		s += fmt.Sprintf(" cookie=%d", m.Cookie)
	}
	if m.VCI != 0 {
		s += fmt.Sprintf(" vci=%d", m.VCI)
	}
	if m.QoS != "" {
		s += " qos=" + m.QoS
	}
	if m.CallID != 0 {
		s += fmt.Sprintf(" call=%d", m.CallID)
	}
	if m.Reason != "" {
		s += " reason=" + m.Reason
	}
	return s
}

// Errors from decoding.
var (
	errShort   = errors.New("sigmsg: truncated message")
	errBadKind = errors.New("sigmsg: unknown message kind")
)

// fixedLen is the size of the fixed-field prefix every message carries
// before the six length-prefixed strings.
const fixedLen = 40

// AppendTo serializes the message onto buf (usually buf[:0] of a reused
// scratch slice) and returns the extended slice. It allocates only when
// buf lacks capacity. The format is a kind byte followed by fixed
// fields and length-prefixed strings; it is identical for every kind to
// keep the codec simple and the fuzz surface small.
func (m *Msg) AppendTo(buf []byte) []byte {
	out := buf
	out = append(out, byte(m.Kind))
	out = append(out, byte(m.Cookie>>8), byte(m.Cookie))
	out = append(out, byte(m.VCI>>8), byte(m.VCI))
	out = append(out, byte(m.NotifyPort>>8), byte(m.NotifyPort))
	out = append(out, byte(m.CallID>>24), byte(m.CallID>>16), byte(m.CallID>>8), byte(m.CallID))
	if m.FromOrigin {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, byte(m.PID>>24), byte(m.PID>>16), byte(m.PID>>8), byte(m.PID))
	out = appendU64(out, m.TraceID)
	out = appendU64(out, m.SpanID)
	out = append(out, byte(m.Seq>>24), byte(m.Seq>>16), byte(m.Seq>>8), byte(m.Seq))
	out = append(out, byte(m.Epoch>>24), byte(m.Epoch>>16), byte(m.Epoch>>8), byte(m.Epoch))
	for _, s := range []string{m.Service, string(m.Dest), string(m.Src), m.QoS, m.Comment, m.Reason} {
		out = appendString(out, s)
	}
	return out
}

func appendString(out []byte, s string) []byte {
	out = append(out, byte(len(s)>>8), byte(len(s)))
	return append(out, s...)
}

func appendU64(out []byte, v uint64) []byte {
	return append(out,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func u64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Decode parses a message encoded by Encode. Each string field is a
// fresh allocation; hot receive paths should hold a Decoder, whose
// intern table makes repeated service/QoS/address strings free.
func Decode(b []byte) (Msg, error) {
	var m Msg
	err := (*Decoder)(nil).DecodeInto(&m, b)
	return m, err
}

// Decoder is a reusable decode context. Its intern table maps the byte
// content of string fields to previously-built Go strings, so a steady
// state of repeating services, addresses and QoS descriptors decodes
// with zero allocations. A Decoder is not safe for concurrent use; give
// each receive pump its own.
type Decoder struct {
	intern map[string]string
}

// internCap bounds the intern table so a hostile peer streaming unique
// strings cannot grow it without bound; internMaxStr skips interning
// huge one-off strings (comments, reasons) that would bloat the table.
const (
	internCap    = 4096
	internMaxStr = 128
)

// str materializes one decoded string field, interning it when the
// decoder is non-nil.
func (d *Decoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if d == nil || len(b) > internMaxStr {
		return string(b)
	}
	if d.intern == nil {
		d.intern = make(map[string]string, 64)
	}
	if s, ok := d.intern[string(b)]; ok { // no-alloc map lookup
		return s
	}
	s := string(b)
	if len(d.intern) < internCap {
		d.intern[s] = s
	}
	return s
}

// DecodeInto parses a message encoded by Encode/AppendTo into *m,
// overwriting every field. With a reused *m and a warm intern table the
// steady state allocates nothing. A nil receiver is valid and decodes
// without interning.
func (d *Decoder) DecodeInto(m *Msg, b []byte) error {
	*m = Msg{}
	if len(b) < fixedLen {
		return errShort
	}
	m.Kind = Kind(b[0])
	if _, ok := kindNames[m.Kind]; !ok {
		return fmt.Errorf("%w: %d", errBadKind, b[0])
	}
	m.Cookie = uint16(b[1])<<8 | uint16(b[2])
	m.VCI = atm.VCI(uint16(b[3])<<8 | uint16(b[4]))
	m.NotifyPort = uint16(b[5])<<8 | uint16(b[6])
	m.CallID = uint32(b[7])<<24 | uint32(b[8])<<16 | uint32(b[9])<<8 | uint32(b[10])
	m.FromOrigin = b[11] == 1
	m.PID = uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	m.TraceID = u64(b[16:24])
	m.SpanID = u64(b[24:32])
	m.Seq = uint32(b[32])<<24 | uint32(b[33])<<16 | uint32(b[34])<<8 | uint32(b[35])
	m.Epoch = uint32(b[36])<<24 | uint32(b[37])<<16 | uint32(b[38])<<8 | uint32(b[39])
	rest := b[fixedLen:]
	var fields [6]string
	for i := range fields {
		raw, tail, err := takeBytes(rest)
		if err != nil {
			*m = Msg{}
			return err
		}
		fields[i] = d.str(raw)
		rest = tail
	}
	m.Service = fields[0]
	m.Dest = atm.Addr(fields[1])
	m.Src = atm.Addr(fields[2])
	m.QoS = fields[3]
	m.Comment = fields[4]
	m.Reason = fields[5]
	return nil
}

func takeBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, errShort
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) < 2+n {
		return nil, nil, errShort
	}
	return b[2 : 2+n], b[2+n:], nil
}
