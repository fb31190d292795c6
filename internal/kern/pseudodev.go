package kern

import (
	"fmt"
	"time"

	"xunet/internal/atm"
	"xunet/internal/faults"
	"xunet/internal/obs"
	"xunet/internal/sim"
)

// MsgKind tags an upward pseudo-device message (kernel → signaling).
type MsgKind uint8

// Upward message kinds, matching §7.2: the kernel passes messages up
// "when a process terminates, or when it binds or connects to a
// PF_XUNET socket".
const (
	// MsgExit reports process termination; PID is set.
	MsgExit MsgKind = iota + 1
	// MsgBind reports a bind on a PF_XUNET socket; VCI, Cookie and PID
	// are set.
	MsgBind
	// MsgConnect reports a connect on a PF_XUNET socket; VCI, Cookie
	// and PID are set.
	MsgConnect
	// MsgClose reports an application closing a PF_XUNET socket, so the
	// signaling entity can tear the call down; VCI is set.
	MsgClose
)

func (k MsgKind) String() string {
	switch k {
	case MsgExit:
		return "EXIT_IND"
	case MsgBind:
		return "BIND_IND"
	case MsgConnect:
		return "CONNECT_IND"
	case MsgClose:
		return "CLOSE_IND"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// KMsg is one upward pseudo-device message. The original wire format is
// four bytes; the struct carries the same information decoded. At is
// the sim time the kernel posted the indication, stamped by PostUp, so
// the tracing layer can attribute the queueing delay between the
// kernel event and the sighost consuming it.
type KMsg struct {
	Kind   MsgKind
	VCI    atm.VCI
	Cookie uint16
	PID    uint32
	At     time.Duration
}

// String renders the message for traces.
func (m KMsg) String() string {
	return fmt.Sprintf("%v{vci=%d cookie=%d pid=%d}", m.Kind, m.VCI, m.Cookie, m.PID)
}

// DownKind tags a downward command (signaling → kernel).
type DownKind uint8

// Downward command kinds.
const (
	// DownDisconnect marks the socket bound to VCI unusable
	// (soisdisconnected), used when the peer terminated or cookie
	// authentication failed.
	DownDisconnect DownKind = iota + 1
)

// DownCmd is one downward pseudo-device command.
type DownCmd struct {
	Kind DownKind
	VCI  atm.VCI
}

// PseudoDev is the /dev/anand character pseudo-device. Upward messages
// are queued in a bounded buffer; when the buffer is full the message
// is lost and counted — the failure mode §10 hit with eight buffers
// under a hundred-call burst. A reader arms the device for one message
// at a time (Arm), as a select()-driven daemon reads it.
type PseudoDev struct {
	e        *sim.Engine
	capacity int
	q        sim.Queue[KMsg]
	reader   func(KMsg, bool) // Arm's, until the next message
	closed   bool
	onDown   func(DownCmd)

	// Posted counts successful upward messages; Lost counts messages
	// dropped because the buffer was full.
	Posted uint64
	Lost   uint64

	// Registry instrumentation (nil until instrument): every drop counts
	// in kern.dev.overflows, and depth's high-water mark is peak occupancy.
	overflows *obs.Counter
	depth     *obs.Gauge

	// faults, when non-nil, drops upward indications as if the buffer
	// were under pressure — the §10 failure mode on demand.
	faults *faults.Plane
}

// SetFaults attaches a fault plane; injected drops count as Lost and
// overflow exactly like real buffer exhaustion.
func (d *PseudoDev) SetFaults(p *faults.Plane) { d.faults = p }

// newPseudoDev creates a device with the given number of message
// buffers (§10: 8 originally, 80 after the fix).
func newPseudoDev(e *sim.Engine, buffers int) *PseudoDev {
	if buffers <= 0 {
		buffers = defaultDeviceBuffers
	}
	return &PseudoDev{e: e, capacity: buffers}
}

// instrument registers the device's metrics in reg: kern.dev.posted and
// kern.dev.lost (read-through), kern.dev.overflows (counted at the drop
// site) and the kern.dev.depth gauge whose high-water mark records peak
// buffer occupancy.
func (d *PseudoDev) instrument(reg *obs.Registry) {
	d.overflows = reg.Counter("kern.dev.overflows")
	d.depth = reg.Gauge("kern.dev.depth")
	reg.Func("kern.dev.posted", func() uint64 { return d.Posted })
	reg.Func("kern.dev.lost", func() uint64 { return d.Lost })
}

// PostUp enqueues an upward message from the kernel. It reports false —
// and counts the loss — when every buffer is occupied. A message handed
// directly to an armed reader occupies no buffer.
func (d *PseudoDev) PostUp(m KMsg) bool {
	full := d.q.Len() >= d.capacity
	if d.faults != nil && d.faults.DevDrop() || full {
		d.Lost++
		if d.overflows != nil {
			d.overflows.Inc()
			if full {
				d.depth.Set(int64(d.capacity))
			}
		}
		return false
	}
	d.Posted++
	m.At = d.e.Now()
	if r := d.reader; r != nil {
		d.reader = nil
		r(m, true)
	} else {
		d.q.Put(m)
	}
	if d.depth != nil {
		d.depth.Set(int64(d.q.Len()))
	}
	return true
}

// Arm hands the next upward message to fn, once: a buffered one now,
// else the next post's. Until it is armed again, posts back up in the
// buffer. Once the device is closed and drained, fn gets ok false.
func (d *PseudoDev) Arm(fn func(m KMsg, ok bool)) {
	if m, ok := d.q.TryGet(); ok || d.closed {
		fn(m, ok)
		return
	}
	d.reader = fn
}

// WriteDown delivers a command from the signaling entity to the kernel;
// the device's write routine runs it immediately (it calls the socket
// layer's soisdisconnected).
func (d *PseudoDev) WriteDown(cmd DownCmd) {
	if d.onDown != nil {
		d.onDown(cmd)
	}
}

// Close shuts the device: posts are dropped, and an armed reader gets
// ok false.
func (d *PseudoDev) Close() {
	d.q.Close()
	d.closed = true
	if r := d.reader; r != nil {
		d.reader = nil
		r(KMsg{}, false)
	}
}
