package cost

// Components returns all accountable components in table order.
func Components() []Component {
	cs := make([]Component, numComponents)
	for i := range cs {
		cs[i] = Component(i)
	}
	return cs
}

// Count reports the instructions charged to component c.
func (m *Meter) Count(c Component) int64 {
	if m == nil || int(c) >= int(numComponents) {
		return 0
	}
	return m.counts[c]
}

// Total reports the instructions charged across all components.
func (m *Meter) Total() int64 {
	if m == nil {
		return 0
	}
	var t int64
	for i := range m.counts {
		t += m.counts[i]
	}
	return t
}

// Reset zeroes every component counter.
func (m *Meter) Reset() {
	if m == nil {
		return
	}
	m.counts = [numComponents]int64{}
}
