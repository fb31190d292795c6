package signaling

import (
	"time"

	"xunet/internal/atm"
	"xunet/internal/obs"
	"xunet/internal/sigmsg"
	"xunet/internal/sim"
)

// The peer PVC mesh offers no transport reliability: sighost-to-sighost
// messages ride raw AAL5 frames, so a lost SETUP stalls a call forever
// and a duplicated one could double-allocate a VCI. This file adds the
// missing layer at the signaling level — per-peer sequence numbers,
// ack-driven retransmission with capped exponential backoff and a retry
// budget, and a receive-side dedup window — all opt-in (EnableReliability)
// so the clean-path wire traffic and goldens are untouched by default.

// RelConfig tunes the reliable peer channel.
type RelConfig struct {
	// RTO is the first retransmission timeout; each retry doubles it up
	// to MaxBackoffShift doublings.
	RTO             time.Duration
	MaxBackoffShift uint
	// MaxRetries is the retry budget beyond the initial send; when it is
	// spent the affected call is torn down with a TIMEOUT status (which
	// dumps its trace to the flight recorder).
	MaxRetries int
	// KeepaliveEvery probes each active peer at this period; a peer
	// silent for KeepaliveMisses periods is declared dead and every call
	// through it is torn down (§7's endpoint-death cascade, applied to
	// the signaling neighbor itself). Zero disables keepalives.
	KeepaliveEvery  time.Duration
	KeepaliveMisses int
}

// DefaultRelConfig matches the testbed's RTTs: first retry after 250ms,
// budget of 6 retries (~16s worst case), keepalives every 2s with a
// 3-miss death threshold.
func DefaultRelConfig() RelConfig {
	return RelConfig{
		RTO:             250 * time.Millisecond,
		MaxBackoffShift: 4,
		MaxRetries:      6,
		KeepaliveEvery:  2 * time.Second,
		KeepaliveMisses: 3,
	}
}

// life is how long a message may arrive after its first send: every
// retransmission's wait, the last one's (before the sender gives up)
// included. The receiver's dedup window reads its own config as its
// peers'.
func (c RelConfig) life() (d time.Duration) {
	for i := range c.MaxRetries + 1 {
		d += c.RTO << min(uint(i), c.MaxBackoffShift)
	}
	return d
}

// pendingMsg is one unacknowledged reliable message. The wire encoding
// is produced exactly once, at first send, and cached in raw: every
// retransmission replays the same frame. Structs are pooled; the
// cancel-before-free discipline (every drop path cancels the timer
// first, except the fire path itself) keeps stale timers off recycled
// structs, since a canceled timer never runs.
type pendingMsg struct {
	m        sigmsg.Msg
	raw      []byte // cached wire encoding; survives pool recycling
	attempts int    // retransmissions so far
	sentAt   time.Duration
	cancel   CancelFunc

	sh *Sighost
	lk *peerLink

	fire func() // pre-bound retransmit callback
}

// pmCall names the call a reliable message to peer establishes.
// ok=false for kinds not tied to a live call (RELEASE outlives its
// call), which are never canceled with a call and tear nothing down
// when their retries run out.
func pmCall(peer atm.Addr, m sigmsg.Msg) (k callKey, ok bool) {
	switch m.Kind {
	case sigmsg.KindSetup, sigmsg.KindConnectDone:
		return callKey{peer: peer, id: m.CallID, origin: true}, true
	case sigmsg.KindSetupAck, sigmsg.KindSetupRej:
		return callKey{peer: peer, id: m.CallID, origin: false}, true
	}
	return callKey{}, false
}

// peerLink is the per-neighbor reliability state.
type peerLink struct {
	addr atm.Addr

	// Transmit side: unacked is the one table of pending messages, by
	// sequence number.
	epoch   uint32
	nextSeq uint32
	unacked sim.Index[*pendingMsg]
	backlog size // unacked.Len(), for readers off the actor

	// Receive side: the sequences of the epoch delivered so far.
	rxEpoch uint32
	seen    sim.Window

	// Keepalive state. kaOn marks the probe chain armed; it disarms
	// itself when the link goes idle so a quiesced sim can drain.
	lastHeard time.Duration
	kaOn      bool
	kaCancel  CancelFunc
}

// reliability is the per-sighost reliable-channel state.
type reliability struct {
	cfg    RelConfig
	links  map[atm.Addr]*peerLink
	pmPool sim.FreeList[pendingMsg]

	retransmits *obs.Counter   // sighost.rel.retransmits
	acks        *obs.Counter   // sighost.rel.acks
	dups        *obs.Counter   // sighost.rel.dups
	stale       *obs.Counter   // sighost.rel.stale_epoch
	exhausted   *obs.Counter   // sighost.rel.exhausted
	keepalives  *obs.Counter   // sighost.rel.keepalives
	peerDeaths  *obs.Counter   // sighost.rel.peer_deaths
	encodes     *obs.Counter   // sighost.rel.encodes
	ackRTT      *obs.Histogram // sighost.rel.ack_rtt
}

// newPending draws a pooled struct, keeping its raw buffer and its fire
// callback, bound when the pool makes the struct.
func (r *reliability) newPending() *pendingMsg {
	pm := r.pmPool.Get()
	if pm.fire == nil {
		pm.fire = func() { pm.fireNow() }
	}
	return pm
}

// dropPending removes pm from its link's tables and recycles it. Callers
// must cancel pm's timer first (or be inside its fire path).
func (r *reliability) dropPending(lk *peerLink, pm *pendingMsg) {
	lk.unacked.Delete(uint64(pm.m.Seq))
	lk.backlog.set(lk.unacked.Len())
	pm.sh, pm.lk, pm.cancel = nil, nil, nil
	pm.attempts = 0
	r.pmPool.Put(pm)
}

// EnableReliability turns the reliable peer channel on. Must be called
// before the first call is placed; counters register lazily here so
// reliability-free runs render byte-identical registry snapshots.
func (sh *Sighost) EnableReliability(cfg RelConfig) {
	if cfg.RTO <= 0 {
		cfg = DefaultRelConfig()
	}
	sh.rel = &reliability{
		cfg:         cfg,
		links:       make(map[atm.Addr]*peerLink),
		retransmits: sh.Obs.Counter("sighost.rel.retransmits"),
		acks:        sh.Obs.Counter("sighost.rel.acks"),
		dups:        sh.Obs.Counter("sighost.rel.dups"),
		stale:       sh.Obs.Counter("sighost.rel.stale_epoch"),
		exhausted:   sh.Obs.Counter("sighost.rel.exhausted"),
		keepalives:  sh.Obs.Counter("sighost.rel.keepalives"),
		peerDeaths:  sh.Obs.Counter("sighost.rel.peer_deaths"),
		encodes:     sh.Obs.Counter("sighost.rel.encodes"),
		ackRTT:      sh.Obs.Histogram("sighost.rel.ack_rtt"),
	}
}

// PrimePeer pre-creates the reliability state for a known neighbor, so
// its retransmit-backlog metric exists (at zero) from the start of the
// run instead of materializing on first traffic. A no-op when
// reliability is off.
func (sh *Sighost) PrimePeer(peer atm.Addr) {
	if sh.rel == nil {
		return
	}
	sh.rel.link(sh, peer)
}

// link returns (creating if needed) the reliability state for peer.
func (r *reliability) link(sh *Sighost, peer atm.Addr) *peerLink {
	lk := r.links[peer]
	if lk == nil {
		lk = &peerLink{addr: peer, epoch: sh.epochGen + 1}
		r.links[peer] = lk
		// Per-peer retransmit backlog as a read-through metric, sampled
		// at snapshot/scrape time like the trunk cell counters.
		sh.Obs.Func("sighost.rel.backlog."+string(peer), lk.backlog.get)
	}
	return lk
}

// relSend transmits one peer message reliably: number it, remember it,
// and arm the retransmission timer.
func (sh *Sighost) relSend(dst atm.Addr, m sigmsg.Msg) error {
	r := sh.rel
	lk := r.link(sh, dst)
	lk.nextSeq++
	m.Seq = lk.nextSeq
	m.Epoch = lk.epoch
	pm := r.newPending()
	pm.sh, pm.lk, pm.m = sh, lk, m
	pm.sentAt = sh.env.Now()
	// Encode exactly once; every retransmission replays the cached frame.
	pm.raw = m.AppendTo(pm.raw[:0])
	r.encodes.Inc()
	lk.unacked.Put(uint64(m.Seq), pm)
	lk.backlog.set(lk.unacked.Len())
	sh.emitMsg(evPeerTx, dst, &m)
	if err := sh.env.SendPeer(dst, m, pm.raw); err != nil {
		// No signaling path at all (no PVC): retrying cannot help.
		r.dropPending(lk, pm)
		return err
	}
	sh.armRetransmit(lk, pm)
	sh.ensureKeepalive(lk)
	return nil
}

// armRetransmit schedules the next (re)transmission of pm with capped
// exponential backoff.
func (sh *Sighost) armRetransmit(lk *peerLink, pm *pendingMsg) {
	shift := uint(pm.attempts)
	shift = min(shift, sh.rel.cfg.MaxBackoffShift)
	pm.cancel = sh.env.After(sh.rel.cfg.RTO<<shift, "rel.rto", pm.fire)
}

// fireNow runs one retransmit deadline: give up when the budget is
// spent, otherwise replay the cached frame and re-arm. Giving up on a
// call's message is that call's input onRetxExhausted (its TIMEOUT
// trace status dumps the span tree to the flight recorder); a lost
// RELEASE names no call, which is already gone.
func (pm *pendingMsg) fireNow() {
	sh, lk := pm.sh, pm.lk
	if pm.attempts >= sh.rel.cfg.MaxRetries {
		addr, m := lk.addr, pm.m
		sh.rel.dropPending(lk, pm) // recycles pm: only the locals are safe now
		sh.rel.exhausted.Inc()
		if sh.traceOn() {
			sh.emit(Event{Kind: evRelExhaust, peer: addr, CallID: m.CallID, msg: m})
		}
		if k, ok := pmCall(addr, m); ok {
			sh.react(sh.calls.get(k), onRetxExhausted, nil)
		}
		return
	}
	pm.attempts++
	sh.rel.retransmits.Inc()
	if sh.traceOn() {
		sh.emit(Event{Kind: evRelRetx, peer: lk.addr, CallID: pm.m.CallID, msg: pm.m})
	}
	_ = sh.env.SendPeer(lk.addr, pm.m, pm.raw)
	sh.armRetransmit(lk, pm)
}

// cancelCallRetransmits drops pending retransmissions that only make
// sense while the call is being established; called when a teardown
// ends a call, so it cannot keep the retry machinery (and the sim) alive.
// RELEASE names no call, so a teardown's own farewell keeps retrying.
func (sh *Sighost) cancelCallRetransmits(c *call) {
	if lk := sh.rel.links[c.key.peer]; lk != nil {
		sh.rel.dropWhere(lk, func(pm *pendingMsg) bool {
			k, ok := pmCall(lk.addr, pm.m)
			return ok && k == c.key
		})
	}
}

// dropWhere cancels and pools the pending messages of lk that keep
// selects, in Seq order, so the pool's order is deterministic. Under
// sim_storm_chaos a link holds 1.45 pending messages at a teardown on
// average, 18 at most: the scan costs less than a per-call index.
func (r *reliability) dropWhere(lk *peerLink, keep func(*pendingMsg) bool) {
	for _, pm := range bySeq(nil, &lk.unacked, keep) {
		if pm.cancel != nil {
			pm.cancel()
		}
		r.dropPending(lk, pm)
	}
}

// relRecv filters one arriving peer message through the reliability
// layer. It returns false when the message was consumed (ack, keepalive,
// duplicate, stale epoch) and must not reach the protocol handlers.
func (sh *Sighost) relRecv(from atm.Addr, m *sigmsg.Msg) bool {
	lk := sh.rel.link(sh, from)
	lk.lastHeard = sh.env.Now()
	switch m.Kind {
	case sigmsg.KindPeerAck:
		sh.rel.acks.Inc()
		if m.Epoch == lk.epoch {
			if pm, ok := lk.unacked.Get(uint64(m.Seq)); ok {
				if pm.cancel != nil {
					pm.cancel()
				}
				// Karn's rule: a retransmitted message's ack is ambiguous
				// (it may answer any attempt), so only first-try acks
				// contribute RTT samples.
				if pm.attempts == 0 {
					sh.rel.ackRTT.Observe(sh.env.Now() - pm.sentAt)
				}
				sh.rel.dropPending(lk, pm)
			}
		}
		return false
	case sigmsg.KindKeepalive:
		sh.rel.keepalives.Inc()
		sh.ensureKeepalive(lk) // probe back so both deadlines refresh
		return false
	}
	if m.Seq == 0 {
		return true // unsequenced sender (reliability off at the peer)
	}
	if m.Epoch != lk.rxEpoch {
		if m.Epoch < lk.rxEpoch {
			// A retransmission from before the peer's crash: its call
			// state died with the old incarnation.
			sh.rel.stale.Inc()
			return false
		}
		// New incarnation: reset the dedup window for its fresh sequence
		// space.
		lk.rxEpoch = m.Epoch
		lk.seen = sim.Window{}
	}
	// Always ack — even duplicates, whose earlier ack may have been the
	// loss that caused the retransmission. Acks are unsequenced.
	_ = sh.sendFrame(from, sigmsg.Msg{Kind: sigmsg.KindPeerAck, Seq: m.Seq, Epoch: m.Epoch})
	if !lk.seen.Add(m.Seq, sh.env.Now(), sh.rel.cfg.life()) {
		sh.rel.dups.Inc()
		if sh.traceOn() {
			sh.emit(Event{Kind: evRelDup, peer: from, CallID: m.CallID, msg: *m})
		}
		return false
	}
	sh.ensureKeepalive(lk)
	return true
}

// linkActive reports whether the peer link carries live state worth
// probing: calls through the peer or unacknowledged messages to it.
func (sh *Sighost) linkActive(lk *peerLink) bool {
	if lk.unacked.Len() > 0 {
		return true
	}
	for _, c := range sh.calls.all() {
		if c.key.peer == lk.addr {
			return true
		}
	}
	return false
}

// ensureKeepalive arms the probe chain if keepalives are configured and
// the chain is not already running. The chain disarms itself when the
// link goes idle, so keepalives never keep a drained simulation alive.
func (sh *Sighost) ensureKeepalive(lk *peerLink) {
	if sh.rel.cfg.KeepaliveEvery <= 0 || lk.kaOn || lk.addr == sh.env.Addr() {
		return
	}
	if !sh.linkActive(lk) {
		return
	}
	lk.kaOn = true
	lk.lastHeard = sh.env.Now()
	sh.armKeepalive(lk)
}

func (sh *Sighost) armKeepalive(lk *peerLink) {
	cfg := sh.rel.cfg
	lk.kaCancel = sh.env.After(cfg.KeepaliveEvery, "rel.keepalive", func() {
		if !sh.linkActive(lk) {
			lk.kaOn = false
			return
		}
		if sh.env.Now()-lk.lastHeard >= cfg.KeepaliveEvery*time.Duration(cfg.KeepaliveMisses) {
			lk.kaOn = false
			sh.peerDead(lk)
			return
		}
		_ = sh.sendFrame(lk.addr, sigmsg.Msg{Kind: sigmsg.KindKeepalive, Epoch: lk.epoch})
		sh.armKeepalive(lk)
	})
}

// peerDead declares the neighbor dead after the keepalive miss threshold
// and cascades into per-call teardown, exactly as §7 prescribes for
// endpoint death — applied here to the signaling entity itself.
func (sh *Sighost) peerDead(lk *peerLink) {
	sh.rel.peerDeaths.Inc()
	if sh.traceOn() {
		sh.emit(Event{Kind: evPeerDead, peer: lk.addr})
	}
	sh.rel.dropWhere(lk, every)
	// The neighbor's calls end in creation order, so the cascade is
	// deterministic.
	for _, c := range sh.calls.bySeq(func(c *call) bool { return c.key.peer == lk.addr }) {
		sh.react(c, onPeerDead, nil)
	}
}
