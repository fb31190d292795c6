package anand

import "xunet/internal/memnet"

// Connected reports whether a host currently has a relay connection.
func (s *Server) Connected(host memnet.IPAddr) bool {
	_, ok := s.conns[host]
	return ok
}
