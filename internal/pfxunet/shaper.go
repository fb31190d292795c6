package pfxunet

import (
	"time"

	"xunet/internal/mbuf"
	"xunet/internal/obs"
)

// Traffic shaping demonstrates the §4 orthogonality goal: the paper's
// signaling and OS support "should not make any assumptions about the
// functionality implemented by the protocol stack", precisely so the
// stack can grow policies like this without touching sighost or the
// kernel interfaces. A shaped socket paces its frames to the rate the
// call's QoS reserved, so a CBR circuit offers conformant traffic to
// the network instead of line-rate bursts. (Reference [12], the
// companion semantics paper, sketches richer per-VC disciplines; this
// leaky bucket is the minimal useful instance.)

// shaper paces frames from a queue at a configured bit rate.
type shaper struct {
	s        *Socket
	rateBps  uint64
	queue    []*mbuf.Chain
	bytes    int
	limit    int // queue byte limit; frames beyond it are dropped
	draining bool

	// ShapedOut counts frames released; ShapedDropped counts frames
	// dropped at the shaper queue.
	ShapedOut     uint64
	ShapedDropped uint64

	// Machine-registry views: shaper queue depth (bytes, with high-water
	// mark) and drop/release counters shared by all shaped sockets.
	ctOut   *obs.Counter
	ctDrops *obs.Counter
	gDepth  *obs.Gauge
}

// SetShaper paces this socket's sends at rateKbs kilobits per second
// with the given queue budget in bytes (0 means 64 KiB). A rate of 0
// removes the shaper. Typically callers pass the bandwidth from the
// negotiated QoS descriptor.
func (s *Socket) SetShaper(rateKbs uint32, queueBytes int) {
	if rateKbs == 0 {
		s.shaper = nil
		return
	}
	if queueBytes <= 0 {
		queueBytes = 64 * 1024
	}
	reg := s.f.m.Obs
	s.shaper = &shaper{
		s: s, rateBps: uint64(rateKbs) * 1000, limit: queueBytes,
		ctOut:   reg.Counter("pfxunet.shaper.out"),
		ctDrops: reg.Counter("pfxunet.shaper.drops"),
		gDepth:  reg.Gauge("pfxunet.shaper.depth"),
	}
}

// Shaper stats: frames released and dropped (zero if unshaped).
func (s *Socket) ShaperStats() (out, dropped uint64) {
	if s.shaper == nil {
		return 0, 0
	}
	return s.shaper.ShapedOut, s.shaper.ShapedDropped
}

// submit enqueues a frame, starting the drain clock if idle.
func (sh *shaper) submit(chain *mbuf.Chain) error {
	if sh.bytes+chain.Len() > sh.limit {
		sh.ShapedDropped++
		sh.ctDrops.Inc()
		chain.Release()
		return nil // shaped traffic drops silently, like a policer
	}
	sh.queue = append(sh.queue, chain)
	sh.bytes += chain.Len()
	sh.gDepth.Add(int64(chain.Len()))
	if !sh.draining {
		sh.draining = true
		sh.drain()
	}
	return nil
}

// drain releases the head frame, then schedules the next release after
// the frame's serialization time at the shaped rate.
func (sh *shaper) drain() {
	if len(sh.queue) == 0 {
		sh.draining = false
		return
	}
	chain := sh.queue[0]
	sh.queue = sh.queue[1:]
	// Capture the length now: Output consumes the chain (the board
	// releases it to the mbuf free list after segmentation).
	n := chain.Len()
	sh.bytes -= n
	sh.gDepth.Add(-int64(n))
	sh.ShapedOut++
	sh.ctOut.Inc()
	sock := sh.s
	if sock.state == stateConnected {
		_ = sock.f.m.Orc.Output(sock.vci, chain)
	} else {
		chain.Release()
	}
	gap := time.Duration(uint64(n) * 8 * uint64(time.Second) / sh.rateBps)
	sock.f.m.E.Schedule(gap, sh.drain)
}
