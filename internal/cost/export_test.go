package cost

// Components returns all accountable components in table order.
func Components() []Component {
	cs := make([]Component, numComponents)
	for i := range cs {
		cs[i] = Component(i)
	}
	return cs
}
