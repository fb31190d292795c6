package obs

import (
	"fmt"
	"sync"
	"time"

	"xunet/internal/sim"
)

// DefaultRingSize bounds an event ring. Old events are dropped; Seq stays
// monotonic so consumers can detect loss.
const DefaultRingSize = 256

// Event is one structured trace record. Numeric identity fields (VCI,
// CallID, Cookie) are typed so consumers filter without parsing strings;
// Data carries the underlying protocol message (sigmsg.Msg, kern.KMsg) for
// rendering. Data is excluded from JSON — wire consumers get Text, which
// the publishing component fills when the event is read.
type Event struct {
	Seq    uint64        `json:"seq"`
	At     time.Duration `json:"at_ns"` // sim (or daemon-relative) timestamp
	Comp   string        `json:"comp"`
	Kind   string        `json:"kind"`
	VCI    uint32        `json:"vci,omitempty"`
	CallID uint32        `json:"call,omitempty"`
	Cookie uint32        `json:"cookie,omitempty"`
	Peer   string        `json:"peer,omitempty"`
	Text   string        `json:"text,omitempty"`
	Data   any           `json:"-"`
}

// String renders a generic one-line form. Components with golden trace
// formats (sighost) render events themselves and store the result in Text.
func (ev Event) String() string {
	if ev.Text != "" {
		return ev.Text
	}
	return fmt.Sprintf("[%v] %s.%s vci=%d call=%d %v", ev.At, ev.Comp, ev.Kind, ev.VCI, ev.CallID, ev.Data)
}

// Ring is a bounded, mutex-guarded history of recent events.
type Ring struct {
	mu   sync.Mutex
	buf  sim.Ring[Event]
	size int
	next uint64 // total events ever published == next Seq
}

// NewRing returns a ring holding the last capacity events (min 1).
func NewRing(capacity int) *Ring {
	return &Ring{size: max(capacity, 1)}
}

// Publish stamps ev.Seq and keeps it, dropping the oldest event when full.
func (r *Ring) Publish(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	r.buf.Keep(ev, r.size)
	r.mu.Unlock()
}

// Last returns up to n most recent events, oldest first.
func (r *Ring) Last(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Last(n)
}
