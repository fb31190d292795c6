package qos

// WeakerOrEqual reports whether q demands no more than r: same or lower
// class, and no more bandwidth. This is the negotiation invariant — the
// server "is free to accept or deny the call and also modify the QoS
// parameters", but the modified QoS returned to the client must not
// exceed what was requested.
func (q QoS) WeakerOrEqual(r QoS) bool {
	return q.Class <= r.Class && q.BandwidthKbs <= r.BandwidthKbs
}

// Reserved reports whether the descriptor carries a hard reservation
// that admission control must account.
func (q QoS) Reserved() bool {
	return q.Class != BestEffort && q.BandwidthKbs > 0
}

// Available reports unreserved capacity in kb/s.
func (b *Book) Available() uint64 { return b.capacityKbs - b.reserved }

// Reserved reports booked capacity in kb/s.
func (b *Book) Reserved() uint64 { return b.reserved }

// Bookings reports the number of live reservations.
func (b *Book) Bookings() int { return b.perVC.Len() }

// Capacity reports the link capacity in kb/s.
func (b *Book) Capacity() uint64 { return b.capacityKbs }
