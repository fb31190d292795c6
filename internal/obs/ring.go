package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize bounds each registry's event ring. Old events are
// overwritten; Seq stays globally monotonic so consumers can detect loss.
const DefaultRingSize = 256

// Event is one structured trace record. Numeric identity fields (VCI,
// CallID, Cookie) are typed so consumers filter without parsing strings;
// Data carries the underlying protocol message (sigmsg.Msg, kern.KMsg) for
// rendering. Data is excluded from JSON — wire consumers get Text, filled by
// the component's stringifier when the event is published.
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

	render func(Event) string
}

// rendered returns ev with Text filled by its component's renderer, if
// the publisher left it empty.
func (ev Event) rendered() Event {
	if ev.Text == "" && ev.render != nil {
		ev.Text = ev.render(ev)
	}
	return ev
}

// String renders a generic one-line form. Components with golden trace
// formats (sighost) render events themselves and store the result in Text.
func (ev Event) String() string {
	if ev.Text != "" {
		return ev.Text
	}
	return fmt.Sprintf("[%v] %s.%s vci=%d call=%d %v", ev.At, ev.Comp, ev.Kind, ev.VCI, ev.CallID, ev.Data)
}

// Ring is a bounded, mutex-guarded buffer of recent events.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever published == next Seq
}

// NewRing returns a ring holding the last capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Publish stamps ev.Seq and appends it, overwriting the oldest event when
// full.
func (r *Ring) Publish(ev Event) {
	r.mu.Lock()
	ev.Seq = r.next
	r.next++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[int(ev.Seq)%cap(r.buf)] = ev
	}
	r.mu.Unlock()
}

// Last returns up to n most recent events, oldest first, rendered.
func (r *Ring) Last(n int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	have := len(r.buf)
	if n > have {
		n = have
	}
	if n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	start := r.next - uint64(n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[int(start+uint64(i))%cap(r.buf)].rendered())
	}
	return out
}

// Tracer is a per-component gate in front of the ring. The disabled path is
// a nil check plus one atomic load, so instrumented call sites cost nothing
// measurable when tracing is off (see BenchmarkTelemetryOverhead).
type Tracer struct {
	on     atomic.Bool
	comp   string
	ring   *Ring
	render func(Event) string
}

// Enabled reports whether events from this component should be built at all.
// Call sites must gate event construction on this, not just Emit, so the
// disabled path never allocates.
func (t *Tracer) Enabled() bool {
	return t != nil && t.on.Load()
}

// SetRender registers how the component's events read as text: they
// publish typed and are rendered only when read, so a busy component pays
// no formatting for events nobody looks at. Call it before enabling.
func (t *Tracer) SetRender(fn func(Event) string) { t.render = fn }

// Emit publishes ev (stamping Comp) if the tracer is enabled.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	ev.Comp = t.comp
	ev.render = t.render
	t.ring.Publish(ev)
}

// Tracer returns the component's tracer, creating it (disabled) on first use.
func (r *Registry) Tracer(comp string) *Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tracers[comp]
	if !ok {
		t = &Tracer{comp: comp, ring: r.ring}
		r.tracers[comp] = t
	}
	return t
}

// EnableTrace flips the component's tracer on or off.
func (r *Registry) EnableTrace(comp string, on bool) {
	r.Tracer(comp).on.Store(on)
}

// Ring returns the registry's shared event ring.
func (r *Registry) Ring() *Ring {
	return r.ring
}
