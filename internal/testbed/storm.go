package testbed

import (
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
)

// This file implements the robustness and scaling workloads of §10:
// "we designed an intensive workload in which a hundred calls were
// initiated as fast as possible. Each call was held for one second,
// then torn down."

// StormConfig parameterizes a call storm.
type StormConfig struct {
	// Count is the number of calls (the paper's hundred).
	Count int
	// Hold is how long each call is held before teardown (one second).
	Hold time.Duration
	// FramesPerCall is data sent on each established circuit.
	FramesPerCall int
	// FrameBytes pads each data frame to this size (<= 0 keeps the tiny
	// default frames); large frames are what actually load the trunks.
	FrameBytes int
	// BasePort is the first client notify port; each call uses
	// BasePort+i.
	BasePort uint16
	// Stagger delays successive call launches ("as fast as possible"
	// is zero).
	Stagger time.Duration
	// QoS is the per-call descriptor (empty = best effort).
	QoS string
	// KillAfter, when positive, kills call i's client process after
	// this delay past its launch — the §10 termination tests.
	KillAfter time.Duration
	// KillEvery kills every k-th client (0 = none).
	KillEvery int

	// Multi-domain topology, consumed by NewSharded/ShardedStorm. Zero
	// values give the flat single-domain degenerate case (one switch,
	// one shard — byte-identical to the unsharded engine).

	// Domains is the number of switch/sighost domains; each domain is
	// one shard with its own event loop.
	Domains int
	// SighostsPerDomain is how many routers (signaling hosts) attach to
	// each domain's switch.
	SighostsPerDomain int
	// TrunkDelay is the inter-domain trunk propagation delay. It funds
	// the shard group's conservative lookahead, so it must be positive
	// when Domains > 1.
	TrunkDelay time.Duration
	// CrossFrames, when positive, sends this many data frames over each
	// pre-provisioned cross-domain carrier circuit during the storm, so
	// the boundary-crossing machinery is on the measured path.
	CrossFrames int
}

// StormResult aggregates a storm run.
type StormResult struct {
	Results   []CallResult
	Launched  int
	Succeeded int
	Failed    int
	Killed    int
	// MaxSetup and MinSetup bound observed establishment latencies of
	// successful calls; TotalSetup allows averaging.
	MinSetup, MaxSetup, TotalSetup time.Duration
}

// Avg returns the mean establishment latency of successful calls.
func (r *StormResult) Avg() time.Duration {
	if r.Succeeded == 0 {
		return 0
	}
	return r.TotalSetup / time.Duration(r.Succeeded)
}

// CallStorm launches cfg.Count concurrent client processes on ep, each
// performing the Figure 6 flow against dest/service. It returns a
// result that fills in as the simulation runs; inspect it after the
// engine has drained.
func CallStorm(ep Endpoint, dest atm.Addr, service string, cfg StormConfig) *StormResult {
	if cfg.Count <= 0 {
		cfg.Count = 100
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 20000
	}
	res := &StormResult{Results: make([]CallResult, cfg.Count)}
	stack := ep.EndStack()
	for i := 0; i < cfg.Count; i++ {
		i := i
		port := cfg.BasePort + uint16(i)
		launch := time.Duration(i) * cfg.Stagger
		proc := stack.Spawn("storm-client", func(p *kern.Proc) {
			if launch > 0 {
				p.SP.Sleep(launch)
			}
			res.Launched++
			r := OpenAndUseFrames(ep, p, dest, service, port, cfg.QoS, cfg.FramesPerCall, cfg.FrameBytes, func(p *kern.Proc) {
				if cfg.Hold > 0 {
					p.SP.Sleep(cfg.Hold)
				}
			})
			res.Results[i] = r
			if r.OK {
				res.Succeeded++
				res.TotalSetup += r.SetupTime
				if res.MinSetup == 0 || r.SetupTime < res.MinSetup {
					res.MinSetup = r.SetupTime
				}
				if r.SetupTime > res.MaxSetup {
					res.MaxSetup = r.SetupTime
				}
			} else {
				res.Failed++
			}
		})
		if cfg.KillEvery > 0 && i%cfg.KillEvery == 0 && cfg.KillAfter > 0 {
			victim := proc
			res.Killed++
			stack.M.E.Schedule(launch+cfg.KillAfter, func() { victim.Kill() })
		}
	}
	return res
}

// ShardedStormResult aggregates one sharded storm.
type ShardedStormResult struct {
	// PerDomain holds each domain's storm result, indexed by domain.
	PerDomain []*StormResult
}

// ShardedStorm launches the E4 workload on every domain at once: each
// domain's last router storms calls against an echo server on its first
// router (intra-domain — runtime SVC setup never crosses a shard), and
// when carriers are provisioned, cfg.CrossFrames data frames ride each
// cross-domain circuit so boundary crossings stay on the measured path.
// cfg.Count is the total call count, split evenly across domains: the
// first Count % Domains get the remainder, one call each, and every
// domain storms at least one call.
func ShardedStorm(n *Net, cfg StormConfig) *ShardedStormResult {
	if cfg.Count <= 0 {
		cfg.Count = 100
	}
	res := &ShardedStormResult{}
	per, extra := cfg.Count/len(n.Domains), cfg.Count%len(n.Domains)
	for i, dom := range n.Domains {
		server := dom.Routers[0]
		client := dom.Routers[len(dom.Routers)-1]
		StartEchoServer(server, "storm", 6000)
		dcfg := cfg
		dcfg.Count = per
		if i < extra {
			dcfg.Count++
		}
		dcfg.Count = max(dcfg.Count, 1)
		res.PerDomain = append(res.PerDomain, CallStorm(client, server.Stack.Addr, "storm", dcfg))
		if dom.crossVC != nil && cfg.CrossFrames > 0 {
			n.startCrossCarrier(dom, cfg)
		}
	}
	return res
}

// startCrossCarrier spawns the sink (next domain) and source (this
// domain) processes for one pre-provisioned cross-domain circuit.
func (n *Net) startCrossCarrier(dom *Domain, cfg StormConfig) {
	vc := dom.crossVC
	next := n.Domains[(dom.Index+1)%len(n.Domains)]
	sink := next.Routers[0].Stack
	sink.Spawn("cross-sink", func(p *kern.Proc) {
		sock, err := sink.PF.Socket(p)
		if err != nil {
			return
		}
		if err := sock.Bind(vc.DstVCI, 0); err != nil {
			return
		}
		for {
			if _, err := sock.Recv(); err != nil {
				return
			}
			next.CrossDelivered++
		}
	})
	src := dom.Routers[0].Stack
	frameBytes := cfg.FrameBytes
	if frameBytes < 64 {
		frameBytes = 64
	}
	src.Spawn("cross-source", func(p *kern.Proc) {
		sock, err := src.PF.Socket(p)
		if err != nil {
			return
		}
		if err := sock.Connect(vc.SrcVCI, 0); err != nil {
			return
		}
		p.SP.Sleep(50 * time.Millisecond) // let the sink bind
		payload := make([]byte, frameBytes)
		for i := 0; i < cfg.CrossFrames; i++ {
			_ = sock.Send(payload)
			p.SP.Sleep(5 * time.Millisecond)
		}
		p.SP.Park() // hold the circuit open for the run
	})
}
