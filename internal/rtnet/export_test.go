package rtnet

// Pending reports how many frames are coalesced and unsent.
func (p *Peer) Pending() int { return p.n }
