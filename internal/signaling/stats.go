package signaling

import "xunet/internal/obs"

// Stats is a point-in-time snapshot of signaling activity, read by the
// experiments. The live counts are obs registry counters (see sigCounters);
// Stats() assembles this struct from them on demand.
type Stats struct {
	ServicesRegistered uint64
	CallsRequested     uint64
	CallsEstablished   uint64
	CallsRejected      uint64
	CallsFailed        uint64
	CallsTorn          uint64
	CallsCanceled      uint64
	AuthFailures       uint64
	BindTimeouts       uint64
	KernelMsgs         uint64
	PeerMsgs           uint64
	AppMsgs            uint64
}

// endCount names the counter an ending bumps besides sighost.calls.torn.
type endCount uint8

const (
	countNone endCount = iota
	countFailed
	countRejected
	countCanceled
)

// sigCounters are the registry counters behind the legacy Stats fields,
// registered under "sighost.*" names.
type sigCounters struct {
	servicesRegistered *obs.Counter    // sighost.services_registered
	callsRequested     *obs.Counter    // sighost.calls.requested
	callsEstablished   *obs.Counter    // sighost.calls.established
	ended              [4]*obs.Counter // by endCount: sighost.calls.failed, .rejected, .canceled
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
	setupProcess *obs.Histogram // sighost.setup.process: CONNECT_REQ handled -> SETUP sent
	setupPeer    *obs.Histogram // sighost.setup.peer: SETUP sent -> SETUP_ACK received
	setupProgram *obs.Histogram // sighost.setup.program: SETUP_ACK -> call established
	setupTotal   *obs.Histogram // sighost.setup.total: CONNECT_REQ -> established (origin)
	acceptTotal  *obs.Histogram // sighost.accept.total: SETUP -> CONNECT_DONE (dest)
	bindLatency  *obs.Histogram // sighost.bind.latency: established -> bind authenticated
	bindTimerLag *obs.Histogram // sighost.bindtimer.fire: timer lag past its deadline
}

// register creates sighost's counters and histograms in reg, and the
// five lists of §7.3 as read-through gauges. The gauges are sampled at
// snapshot time, which must run in actor context (mgmt queries do) or
// after the sim quiesces.
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
	sh.h = sigHists{
		setupProcess: reg.Histogram("sighost.setup.process"),
		setupPeer:    reg.Histogram("sighost.setup.peer"),
		setupProgram: reg.Histogram("sighost.setup.program"),
		setupTotal:   reg.Histogram("sighost.setup.total"),
		acceptTotal:  reg.Histogram("sighost.accept.total"),
		bindLatency:  reg.Histogram("sighost.bind.latency"),
		bindTimerLag: reg.Histogram("sighost.bindtimer.fire"),
	}
	reg.Func("sighost.list.services", func() uint64 { return uint64(len(sh.services)) })
	reg.Func("sighost.list.outgoing", func() uint64 { return uint64(len(sh.outgoing)) })
	reg.Func("sighost.list.incoming", func() uint64 { return uint64(len(sh.incoming)) })
	reg.Func("sighost.list.wait_bind", func() uint64 { return uint64(len(sh.waitBind)) })
	reg.Func("sighost.list.vci_map", func() uint64 { return uint64(len(sh.vciMap)) })
	reg.Func("sighost.cookies", func() uint64 { return uint64(len(sh.cookies)) })
	reg.Func("sighost.calls.active", func() uint64 { return uint64(len(sh.calls)) })
}

// Stats snapshots the signaling counters into the legacy struct.
func (sh *Sighost) Stats() Stats {
	return Stats{
		ServicesRegistered: sh.ct.servicesRegistered.Value(),
		CallsRequested:     sh.ct.callsRequested.Value(),
		CallsEstablished:   sh.ct.callsEstablished.Value(),
		CallsRejected:      sh.ct.ended[countRejected].Value(),
		CallsFailed:        sh.ct.ended[countFailed].Value(),
		CallsTorn:          sh.ct.callsTorn.Value(),
		CallsCanceled:      sh.ct.ended[countCanceled].Value(),
		AuthFailures:       sh.ct.authFailures.Value(),
		BindTimeouts:       sh.ct.bindTimeouts.Value(),
		KernelMsgs:         sh.ct.kernelMsgs.Value(),
		PeerMsgs:           sh.ct.peerMsgs.Value(),
		AppMsgs:            sh.ct.appMsgs.Value(),
	}
}

// ListSizes reports the five list sizes (service_list,
// outgoing_requests, incoming_requests, wait_for_bind, VCI_mapping) for
// the robustness assertions: after a storm with everything torn down,
// all but service_list must be empty.
func (sh *Sighost) ListSizes() (services, outgoing, incoming, waitBind, vciMapping int) {
	return len(sh.services), len(sh.outgoing), len(sh.incoming), len(sh.waitBind), len(sh.vciMap)
}

// CookieCount reports live per-VCI cookie entries.
func (sh *Sighost) CookieCount() int { return len(sh.cookies) }
