package memnet

// UnbindDatagram releases a datagram port.
func (nd *Node) UnbindDatagram(port uint16) { delete(nd.dgrams, port) }

// LocalPort returns this endpoint's port.
func (s *Stream) LocalPort() uint16 { return s.key.lport }

// SetTeardown registers a hook invoked exactly once when the connection
// fully terminates; reset reports abnormal termination.
func (s *Stream) SetTeardown(fn func(reset bool)) { s.teardown = fn }

// LinkTo exposes the outgoing link from a node to a neighbor, for
// reading its counters.
func (nd *Node) LinkTo(neighbor *Node) *LinkHandle {
	l := nd.links[neighbor]
	if l == nil {
		return nil
	}
	return &LinkHandle{l: l}
}

// LinkHandle reads a live link.
type LinkHandle struct{ l *link }

// Stats reports (sent, dropped) counts.
func (h *LinkHandle) Stats() (sent, dropped uint64) { return h.l.Sent, h.l.Dropped }
