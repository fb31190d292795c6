package trace

// StartSpan opens a child span under parent starting now.
func (c *Collector) StartSpan(parent Context, comp, name string) Context {
	if !parent.Sampled() || c == nil {
		return Context{}
	}
	return c.StartSpanAt(parent, comp, name, c.now())
}
