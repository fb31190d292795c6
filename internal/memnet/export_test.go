package memnet

// UnbindDatagram releases a datagram port.
func (nd *Node) UnbindDatagram(port uint16) { delete(nd.dgrams, port) }

// LocalPort returns this endpoint's port.
func (s *Stream) LocalPort() uint16 { return s.key.lport }

// SetTeardown registers a hook invoked exactly once when the connection
// fully terminates; reset reports abnormal termination.
func (s *Stream) SetTeardown(fn func(reset bool)) { s.teardown = fn }

// Stats reports (sent, dropped, reordered) counts.
func (h *LinkHandle) Stats() (sent, dropped, reordered uint64) {
	return h.l.Sent, h.l.Dropped, h.l.Reordered
}
