// Package anand implements the anand client and server stubs of §7.2
// and §7.4: the pair that relays messages between a host's /dev/anand
// pseudo-device and the sighost on its router, and that manages the
// IP-specific forwarding state sighost itself stays ignorant of.
//
//   - anand client runs on each IP-connected host: it selects on the
//     host pseudo-device (Arm), relays every upward kernel message
//     to anand server over a TCP connection, and writes relayed
//     downward commands into the host pseudo-device.
//   - anand server runs on the router: it forwards relayed kernel
//     messages up to sighost, and — because it, not sighost, manages IP
//     specifics — reacts to a host's BIND_IND by writing the VCI_BIND
//     that points the router's per-VCI handler at the IPPROTO_ATM
//     encapsulation routine with the host's IP address, and to
//     termination by writing VCI_SHUT.
package anand

import (
	"encoding/binary"
	"fmt"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
)

// Frame kinds on the anand client-server connection.
const (
	frameUp   = 1 // host kernel -> sighost: kern.KMsg
	frameDown = 2 // sighost -> host kernel: kern.DownCmd
)

// encodeUp serializes a relayed kernel message, including the post
// timestamp so the router-side trace can attribute relay latency to
// the host kernel's indication.
func encodeUp(k kern.KMsg) []byte {
	b := binary.BigEndian.AppendUint16(append(make([]byte, 0, 18), frameUp, byte(k.Kind)), uint16(k.VCI))
	b = binary.BigEndian.AppendUint16(b, k.Cookie)
	b = binary.BigEndian.AppendUint32(b, k.PID)
	return binary.BigEndian.AppendUint64(b, uint64(k.At))
}

// encodeDown serializes a relayed downward command.
func encodeDown(c kern.DownCmd) []byte {
	return []byte{frameDown, byte(c.Kind), byte(c.VCI >> 8), byte(c.VCI)}
}

// decode parses either frame kind.
func decode(b []byte) (up kern.KMsg, down kern.DownCmd, isUp bool, err error) {
	if len(b) < 4 {
		return up, down, false, fmt.Errorf("anand: short frame (%d bytes)", len(b))
	}
	switch b[0] {
	case frameUp:
		if len(b) < 18 {
			return up, down, false, fmt.Errorf("anand: short up frame")
		}
		up = kern.KMsg{
			Kind:   kern.MsgKind(b[1]),
			VCI:    atm.VCI(binary.BigEndian.Uint16(b[2:])),
			Cookie: binary.BigEndian.Uint16(b[4:]),
			PID:    binary.BigEndian.Uint32(b[6:]),
			At:     time.Duration(binary.BigEndian.Uint64(b[10:])),
		}
		return up, down, true, nil
	case frameDown:
		down = kern.DownCmd{Kind: kern.DownKind(b[1]), VCI: atm.VCI(binary.BigEndian.Uint16(b[2:]))}
		return up, down, false, nil
	}
	return up, down, false, fmt.Errorf("anand: unknown frame kind %d", b[0])
}

// Client is the host-side stub: its relay connection's receiver, and
// the reader it arms on the host pseudo-device once that is up.
type Client struct {
	dev  *kern.PseudoDev
	conn *memnet.Stream
	read func(kern.KMsg, bool) // relay, made once
	// Relayed counts upward messages sent to the router.
	Relayed uint64
}

// StartClient launches anand client on a host: it dials anand server on
// the configured router, and relays both ways once the dial succeeds. It
// is placed in the boot sequence of every simulated host.
func StartClient(stack *core.Stack, routerIP memnet.IPAddr, port uint16) *Client {
	c := &Client{dev: stack.M.Dev}
	c.read = c.relay
	c.conn, _ = stack.M.IP.Dial(routerIP, port, c) // no port: the client never runs
	return c
}

// Dialed starts the upward relay; a refused dial leaves the client idle.
func (c *Client) Dialed(err error) {
	if err == nil {
		c.dev.Arm(c.read)
	}
}

// relay sends one upward kernel message to anand server and reads the
// next; a closed device closes the connection.
func (c *Client) relay(k kern.KMsg, ok bool) {
	if !ok {
		c.conn.Close()
		return
	}
	c.Relayed++
	if c.conn.Send(encodeUp(k)) == nil {
		c.dev.Arm(c.read)
	}
}

// Deliver writes a relayed downward command into the host pseudo-device.
func (c *Client) Deliver(b []byte) {
	if _, down, isUp, err := decode(b); err == nil && !isUp {
		c.dev.WriteDown(down)
	}
}

func (c *Client) EOF() {} // the upward relay stops at its next failed send

// Server is the router-side stub.
type Server struct {
	stack *core.Stack
	// OnKernel receives every relayed host kernel message, tagged with
	// the host's IP; SimHost points it at sighost's actor inbox.
	OnKernel func(from memnet.IPAddr, k kern.KMsg)

	conns map[memnet.IPAddr]*memnet.Stream

	// Relayed counts upward messages forwarded to sighost; Binds and
	// Shuts count VCI_BIND/VCI_SHUT writes.
	Relayed uint64
	Binds   uint64
	Shuts   uint64
}

// StartServer launches anand server on a router, listening on port.
func StartServer(stack *core.Stack, port uint16) (*Server, error) {
	s := &Server{stack: stack, conns: make(map[memnet.IPAddr]*memnet.Stream)}
	l, err := stack.M.IP.ListenStream(port)
	if err != nil {
		return nil, err
	}
	l.OnAccept(func(conn *memnet.Stream) memnet.Receiver {
		h := &hostLink{s: s, host: conn.RemoteAddr(), conn: conn}
		s.conns[h.host] = conn
		return h
	})
	return s, nil
}

// hostLink takes what one host's anand client relays, in the event that
// delivers it.
type hostLink struct {
	s    *Server
	host memnet.IPAddr
	conn *memnet.Stream
}

func (h *hostLink) Dialed(error) {}

// EOF forgets a host whose client has gone.
func (h *hostLink) EOF() {
	if h.s.conns[h.host] == h.conn {
		delete(h.s.conns, h.host)
	}
}

// Deliver manages IP-specific state for a relayed kernel message, then
// forwards it to sighost.
func (h *hostLink) Deliver(b []byte) {
	k, _, isUp, err := decode(b)
	if err != nil || !isUp {
		return
	}
	s, host := h.s, h.host
	switch k.Kind {
	case kern.MsgBind:
		// The host's server bound a VCI: incoming ATM data on that VCI
		// must be re-encapsulated toward the host (VCI_BIND).
		s.Binds++
		s.stack.ATM.VCIBind(k.VCI, host)
	case kern.MsgClose:
		// Data must stop flowing to the host on this VCI (VCI_SHUT).
		s.Shuts++
		s.stack.ATM.VCIShut(k.VCI)
	}
	s.Relayed++
	if s.OnKernel != nil {
		s.OnKernel(host, k)
	}
}

// Disconnect relays a downward disconnect to a host's pseudo-device and
// shuts the router's forwarding state for the VCI.
func (s *Server) Disconnect(host memnet.IPAddr, vci atm.VCI) {
	if s.stack.ATM.Bound(vci) {
		s.Shuts++
		s.stack.ATM.VCIShut(vci)
	}
	if conn, ok := s.conns[host]; ok {
		_ = conn.Send(encodeDown(kern.DownCmd{Kind: kern.DownDisconnect, VCI: vci}))
	}
}
