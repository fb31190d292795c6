package atm

// Lease is one grant of a VCI at a fabric endpoint: Gen counts the grants
// of that number, so state stamped with an older Gen belongs to a circuit
// that is gone. A lease never goes on a wire.
type Lease struct {
	VCI VCI
	Gen uint32
}

// VCIAlloc hands out VCIs in O(1): a LIFO free list of released values
// backed by a high-water cursor for never-used ones, so no call setup
// scans for a free VCI — the control-plane analog of the paper's
// direct-index argument for the data path (§6).
//
// Allocation is fully deterministic: fresh VCIs ascend from min, and a
// released VCI is reused most-recently-freed first. VCIs below min
// (the reserved/PVC range) are never handed out.
type VCIAlloc struct {
	next VCI      // next never-used value; past MaxVCI means exhausted
	free []VCI    // LIFO of released values
	used []bool   // per VCI, granted and not freed
	gen  []uint32 // per VCI, its grants so far
}

// NewVCIAlloc builds an allocator covering [min, MaxVCI]. min below 32
// is raised to 32, keeping the reserved VCI range untouchable.
func NewVCIAlloc(min VCI) *VCIAlloc {
	if min < 32 {
		min = 32
	}
	return &VCIAlloc{next: min}
}

// Alloc grants an unused VCI; the zero Lease means the space is exhausted.
func (a *VCIAlloc) Alloc() Lease {
	var v VCI
	if n := len(a.free); n > 0 {
		v, a.free = a.free[n-1], a.free[:n-1]
	} else if a.next <= MaxVCI {
		v = a.next
		a.next++
	} else {
		return Lease{}
	}
	a.used = Grow(a.used, v)
	a.used[v] = true
	a.gen = Grow(a.gen, v)
	a.gen[v]++
	return Lease{VCI: v, Gen: a.gen[v]}
}

// Free releases a VCI for reuse. Double frees are ignored.
func (a *VCIAlloc) Free(v VCI) {
	if !a.holds(v) {
		return
	}
	a.used[v] = false
	a.free = append(a.free, v)
}

// Lease is v's latest grant, generation 0 if it was never granted; it
// outlives the Free, and the next Alloc of v supersedes it.
func (a *VCIAlloc) Lease(v VCI) Lease {
	a.gen = Grow(a.gen, v)
	return Lease{VCI: v, Gen: a.gen[v]}
}

// Holds reports whether l is granted and not yet freed.
func (a *VCIAlloc) Holds(l Lease) bool { return a.holds(l.VCI) && a.gen[l.VCI] == l.Gen }

func (a *VCIAlloc) holds(v VCI) bool { return int(v) < len(a.used) && a.used[v] }
