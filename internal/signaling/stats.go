package signaling

import (
	"fmt"
	"sync/atomic"

	"xunet/internal/obs"
)

// The sigCounters.ended slots an ending names (0, none).
const (
	countFailed = iota + 1
	countRejected
	countCanceled
)

// sigCounters are sighost's registry counters, the one copy of its
// counts, registered under "sighost.*" names.
type sigCounters struct {
	servicesRegistered *obs.Counter    // sighost.services_registered
	callsRequested     *obs.Counter    // sighost.calls.requested
	callsEstablished   *obs.Counter    // sighost.calls.established
	ended              [4]*obs.Counter // by slot: sighost.calls.failed, .rejected, .canceled
	callsTorn          *obs.Counter    // sighost.calls.torn
	authFailures       *obs.Counter    // sighost.auth_failures
	bindTimeouts       *obs.Counter    // sighost.bind_timeouts
	kernelMsgs         *obs.Counter    // sighost.msgs.kernel
	peerMsgs           *obs.Counter    // sighost.msgs.peer
	appMsgs            *obs.Counter    // sighost.msgs.app
}

// sigHists are the sim-time latency histograms for the paper's call-setup
// breakdown (Figure 4 stages) plus bind behavior.
type sigHists struct {
	stage        [len(stages)]*obs.Histogram // by state: the stay in it, named by its stages row
	setupTotal   *obs.Histogram              // sighost.setup.total: CONNECT_REQ -> established (origin)
	acceptTotal  *obs.Histogram              // sighost.accept.total: SETUP -> VCI_FOR_CONN delivered (dest)
	bindTimerLag *obs.Histogram              // sighost.bindtimer.fire: timer lag past its deadline
}

// size is a length the actor keeps and any goroutine may read: a real
// daemon's ListSizes and CookieCount are read off the actor.
type size struct{ v atomic.Int64 }

func (s *size) set(n int)   { s.v.Store(int64(n)) }
func (s *size) get() uint64 { return uint64(s.v.Load()) }

// sizes are the lengths of the five lists of §7.3, the cookies (VCIs
// mapped to a call) and the call table, each set where its map changes
// (transition, wipe and the service list's writers).
type sizes struct {
	services, outgoing, incoming, waitBind, vciMap, cookies, calls size
}

// register creates sighost's counters and histograms in reg, and the
// lists' sizes as read-through metrics. Those read sh.n, never the
// actor's maps, so a snapshot may be taken from any goroutine.
func (sh *Sighost) register(reg *obs.Registry) {
	sh.ct = sigCounters{
		servicesRegistered: reg.Counter("sighost.services_registered"),
		callsRequested:     reg.Counter("sighost.calls.requested"),
		callsEstablished:   reg.Counter("sighost.calls.established"),
		ended: [4]*obs.Counter{
			countFailed:   reg.Counter("sighost.calls.failed"),
			countRejected: reg.Counter("sighost.calls.rejected"),
			countCanceled: reg.Counter("sighost.calls.canceled"),
		},
		callsTorn:    reg.Counter("sighost.calls.torn"),
		authFailures: reg.Counter("sighost.auth_failures"),
		bindTimeouts: reg.Counter("sighost.bind_timeouts"),
		kernelMsgs:   reg.Counter("sighost.msgs.kernel"),
		peerMsgs:     reg.Counter("sighost.msgs.peer"),
		appMsgs:      reg.Counter("sighost.msgs.app"),
	}
	for s, st := range stages {
		if st.hist != "" {
			sh.h.stage[s] = reg.Histogram(st.hist)
		}
	}
	sh.h.setupTotal = reg.Histogram("sighost.setup.total")
	sh.h.acceptTotal = reg.Histogram("sighost.accept.total")
	sh.h.bindTimerLag = reg.Histogram("sighost.bindtimer.fire")
	reg.Func("sighost.list.services", sh.n.services.get)
	reg.Func("sighost.list.outgoing", sh.n.outgoing.get)
	reg.Func("sighost.list.incoming", sh.n.incoming.get)
	reg.Func("sighost.list.wait_bind", sh.n.waitBind.get)
	reg.Func("sighost.list.vci_map", sh.n.vciMap.get)
	reg.Func("sighost.cookies", sh.n.cookies.get)
	reg.Func("sighost.calls.active", sh.n.calls.get)
}

// ListSizes reports the sizes of service_list, outgoing_requests,
// incoming_requests, wait_for_bind and VCI_mapping, from any goroutine.
func (sh *Sighost) ListSizes() (services, outgoing, incoming, waitBind, vciMapping int) {
	n := &sh.n
	return int(n.services.get()), int(n.outgoing.get()), int(n.incoming.get()), int(n.waitBind.get()), int(n.vciMap.get())
}

// CookieCount reports the live per-VCI cookies (§7.1): the VCIs mapped
// to a call in wait_for_bind or VCI_mapping, each holding its cookie.
func (sh *Sighost) CookieCount() int { return int(sh.n.cookies.get()) }

// Residue describes the transient state sighost holds — list entries
// but service_list's, indexed calls — or is "" when drained.
func (sh *Sighost) Residue() string {
	n, addr := &sh.n, sh.env.Addr()
	switch out, in, wb, vm := n.outgoing.get(), n.incoming.get(), n.waitBind.get(), n.vciMap.get(); {
	case out|in|wb|vm != 0:
		return fmt.Sprintf("%s lists not empty: outgoing=%d incoming=%d wait_bind=%d vci_map=%d", addr, out, in, wb, vm)
	case n.calls.get() != 0:
		return fmt.Sprintf("%s calls still indexed: %d", addr, n.calls.get())
	}
	return ""
}
