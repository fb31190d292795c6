package sim

// eventHeap is the engine's schedule: a binary min-heap of pooled
// events ordered by (at, seq), with each event's position kept in
// ev.index so a Timer can remove its event in O(log n). It is
// container/heap's algorithm written against []*event directly — the
// engine spends its life in push and pop, and the interface calls per
// comparison and swap were a tenth of a storm's wall time. Because seq
// is unique the order is total, so pop order does not depend on how the
// heap arranges ties: any correct heap replays the same history.
type eventHeap []*event

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h)-1, ev)
}

// pop removes and returns the earliest event; the heap must be
// non-empty.
func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		h.down(0, last)
	}
	top.index = -1
	return top
}

// remove deletes the event at position i.
func (h *eventHeap) remove(i int) {
	s := *h
	ev := s[i]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		// The displaced tail element may belong above or below i.
		if i > 0 && last.before(s[(i-1)/2]) {
			h.up(i, last)
		} else {
			h.down(i, last)
		}
	}
	ev.index = -1
}

// up places ev, destined for the hole at i, by sifting the hole toward
// the root.
func (h eventHeap) up(i int, ev *event) {
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !ev.before(p) {
			break
		}
		h[i] = p
		p.index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// down places ev, destined for the hole at i, by sifting the hole
// toward the leaves.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		c := h[child]
		if r := child + 1; r < n && h[r].before(c) {
			child, c = r, h[r]
		}
		if !c.before(ev) {
			break
		}
		h[i] = c
		c.index = i
		i = child
	}
	h[i] = ev
	ev.index = i
}
