// Package anand implements the anand client and server stubs of §7.2
// and §7.4: the pair that relays messages between a host's /dev/anand
// pseudo-device and the sighost on its router, and that manages the
// IP-specific forwarding state sighost itself stays ignorant of.
//
//   - anand client runs on each IP-connected host: it blocks on the
//     host pseudo-device (select()), relays every upward kernel message
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
	"fmt"
	"time"

	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sim"
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
	at := uint64(k.At)
	return []byte{
		frameUp, byte(k.Kind),
		byte(k.VCI >> 8), byte(k.VCI),
		byte(k.Cookie >> 8), byte(k.Cookie),
		byte(k.PID >> 24), byte(k.PID >> 16), byte(k.PID >> 8), byte(k.PID),
		byte(at >> 56), byte(at >> 48), byte(at >> 40), byte(at >> 32),
		byte(at >> 24), byte(at >> 16), byte(at >> 8), byte(at),
	}
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
		at := uint64(b[10])<<56 | uint64(b[11])<<48 | uint64(b[12])<<40 | uint64(b[13])<<32 |
			uint64(b[14])<<24 | uint64(b[15])<<16 | uint64(b[16])<<8 | uint64(b[17])
		up = kern.KMsg{
			Kind:   kern.MsgKind(b[1]),
			VCI:    atm.VCI(uint16(b[2])<<8 | uint16(b[3])),
			Cookie: uint16(b[4])<<8 | uint16(b[5]),
			PID:    uint32(b[6])<<24 | uint32(b[7])<<16 | uint32(b[8])<<8 | uint32(b[9]),
			At:     time.Duration(at),
		}
		return up, down, true, nil
	case frameDown:
		down = kern.DownCmd{Kind: kern.DownKind(b[1]), VCI: atm.VCI(uint16(b[2])<<8 | uint16(b[3]))}
		return up, down, false, nil
	}
	return up, down, false, fmt.Errorf("anand: unknown frame kind %d", b[0])
}

// Client is the host-side stub.
type Client struct {
	stack *core.Stack
	conn  *memnet.Stream
	// Relayed counts upward messages sent to the router.
	Relayed uint64
}

// StartClient launches anand client on a host: it dials anand server on
// the configured router and starts the two relay loops. It is placed in
// the boot sequence of every simulated host.
func StartClient(stack *core.Stack, routerIP memnet.IPAddr, port uint16) *Client {
	c := &Client{stack: stack}
	e := stack.M.E
	e.Go(stack.M.Name+"/anand-client", func(sp *sim.Proc) {
		conn, err := stack.M.IP.DialStream(sp, routerIP, port)
		if err != nil {
			return
		}
		c.conn = conn
		// Downward relay loop: commands from sighost into the host
		// pseudo-device.
		e.Go(stack.M.Name+"/anand-client-down", func(sp2 *sim.Proc) {
			for {
				b, ok := conn.Recv(sp2)
				if !ok {
					return
				}
				if _, down, isUp, err := decode(b); err == nil && !isUp {
					stack.M.Dev.WriteDown(down)
				}
			}
		})
		// Upward relay loop: host kernel messages to anand server.
		for {
			k, ok := stack.M.Dev.ReadUp(sp)
			if !ok {
				conn.Close()
				return
			}
			c.Relayed++
			if err := conn.Send(encodeUp(k)); err != nil {
				return
			}
		}
	})
	return c
}

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
	e := stack.M.E
	e.Go(stack.M.Name+"/anand-server", func(sp *sim.Proc) {
		for {
			conn, ok := l.Accept(sp)
			if !ok {
				return
			}
			host := conn.RemoteAddr()
			s.conns[host] = conn
			e.Go(stack.M.Name+"/anand-server-rx", func(sp2 *sim.Proc) {
				defer func() {
					if s.conns[host] == conn {
						delete(s.conns, host)
					}
				}()
				for {
					b, ok := conn.Recv(sp2)
					if !ok {
						return
					}
					up, _, isUp, err := decode(b)
					if err != nil || !isUp {
						continue
					}
					s.handleUp(host, up)
				}
			})
		}
	})
	return s, nil
}

// handleUp manages IP-specific state, then forwards to sighost.
func (s *Server) handleUp(host memnet.IPAddr, k kern.KMsg) {
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
