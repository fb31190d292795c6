package rtnet

// Pending reports how many frames are coalesced and unsent.
func (p *Peer) Pending() int {
	p.mu.Lock()
	n := p.n
	p.mu.Unlock()
	return n
}
