package mbuf

// Len returns the number of valid bytes in this single mbuf.
func (m *Mbuf) Len() int { return m.n }
