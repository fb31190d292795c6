package tseries

// Enabled reports whether scraping is armed at all; safe on nil.
func (st *Store) Enabled() bool { return st != nil }

// Events returns the retained health events, oldest first.
func (st *Store) Events() []HealthEvent {
	if st == nil {
		return nil
	}
	return st.events.Last(eventCapacity)
}
