package atm

// Encode serializes the cell into a fresh 53-byte slice.
func (c *Cell) Encode() []byte {
	out := make([]byte, CellSize)
	c.EncodeTo(out)
	return out
}

// InUse reports whether v is currently allocated.
func (a *VCIAlloc) InUse(v VCI) bool { return a.holds(v) }

// Live reports how many VCIs are currently in use.
func (a *VCIAlloc) Live() (n int) {
	for _, u := range a.used {
		if u {
			n++
		}
	}
	return n
}
