package obs

// Gauge returns the named gauge snapshot, or nil.
func (s Snapshot) Gauge(name string) *GaugeSnap {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return &s.Gauges[i]
		}
	}
	return nil
}
