//go:build !race

package mbuf

// poison is empty without the race detector: Release recycles at once.
type poison struct{}

func (*poison) check()        {}
func (*poison) release() bool { return true }

// Scribble does nothing without the race detector.
func Scribble([]byte) {}
