// Package testbed composes complete simulated Xunet deployments:
// routers with signaling entities joined by PVC meshes, IP-connected
// hosts running anand clients, and the workload generators the paper's
// experiments use (call storms, echo services, traffic sources).
//
// NewTestbed builds the measurement setup of §9 — two SGI 4D/30-class
// routers across a three hop (two switch) ATM path — and NewXunet
// builds the five-site nationwide network of §1.
package testbed

import (
	"fmt"
	"sort"
	"time"

	"xunet/internal/anand"
	"xunet/internal/atm"
	"xunet/internal/core"
	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
	"xunet/internal/prof"
	"xunet/internal/qos"
	"xunet/internal/signaling"
	"xunet/internal/sim"
	"xunet/internal/trace"
	"xunet/internal/ulib"
	"xunet/internal/xswitch"
)

// Options tunes a testbed build.
type Options struct {
	// Seed drives all simulated randomness (default 1).
	Seed uint64
	// DeviceBuffers sizes every machine's pseudo-device (§10: 8
	// originally, 80 after the fix; default 80 — the fixed
	// configuration — unless a test sweeps it).
	DeviceBuffers int
	// FDTableSize sizes per-process descriptor tables (default
	// kern.DefaultFDTableSize = 20).
	FDTableSize int
	// DisableCallLogging turns off sighost's per-call maintenance
	// logging (the E3 ablation).
	DisableCallLogging bool
	// DisableTracing turns off the causal call tracer (it is on by
	// default so `xunetstat trace <callid>` works against any testbed).
	DisableTracing bool
	// TraceSampleEvery keeps one call trace in every N (head-based
	// sampling; 0 or 1 keeps all).
	TraceSampleEvery uint64
	// Faults, when non-nil, arms the fault-injection plane with this
	// config and enables the self-healing signaling machinery (reliable
	// peer channel, crash-recovery journal, keepalives) on every router.
	// Nil leaves every transport hook a single nil-check and the
	// signaling clean path byte-identical to a fault-free build.
	Faults *faults.Config
	// TSeries, when non-nil, arms continuous telemetry: every machine
	// registry, trunk, and IP link is scraped into Net.TS on sim-time
	// ticks once StartTSeries is called. Nil (the default) keeps every
	// hot-path hook a single nil check and existing goldens untouched.
	TSeries *tseries.Config
	// Prof arms the execution profiler (internal/prof): per-label event
	// attribution on every engine, window/stall accounting on sharded
	// groups, and the MGMT prof views on every router. Everything Prof
	// alone records is deterministic — event counts, the cross-shard
	// matrix — so byte-diffed exports may enable it freely.
	Prof bool
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DeviceBuffers == 0 {
		o.DeviceBuffers = kern.FixedDeviceBuffers
	}
	return o
}

// Router is a machine with an ATM interface and a signaling entity.
type Router struct {
	Stack *core.Stack
	Sig   *signaling.SimHost
	Lib   *ulib.Lib
	dom   *Domain
	// stacks are the machines on its subnet: its own, then its hosts'.
	stacks []*core.Stack
}

// Host is an IP-connected machine reaching ATM through its router.
type Host struct {
	Stack  *core.Stack
	Router *Router
	Lib    *ulib.Lib
	Anand  *anand.Client
}

// Domain is one shard of a deployment: an engine, the routers whose
// events run on it, and the observation planes they record to.
// Everything that records or draws randomness at runtime is per-domain,
// so a run's bytes are independent of the worker count.
type Domain struct {
	Index int
	E     *sim.Engine
	// TraceC is the domain's causal-trace collector: one collector spans
	// every machine and fabric element of the domain, so a call's span
	// tree stitches together across layers.
	TraceC *trace.Collector
	// Faults is the domain's fault plane (nil unless Options.Faults armed
	// it); its registry holds the faults.* injection counters.
	Faults *faults.Plane
	// TS is the domain's time-series store (nil unless Options.TSeries
	// armed it); HealthEvents accumulates every watermark edge its rules
	// emitted.
	TS           *tseries.Store
	HealthEvents []tseries.HealthEvent
	Routers      []*Router
	// FlightDumps accumulates the span trees the flight recorder
	// auto-dumped for calls ending in REJECT, TIMEOUT, or DEATH — the
	// E4 storm's failure modes leave their trails here.
	FlightDumps []string

	// crossVC is the pre-provisioned carrier circuit from this domain's
	// first router to the next domain's (nil on a single domain).
	crossVC *xswitch.VC
	// CrossDelivered counts carrier frames received from the previous
	// domain during a sharded storm.
	CrossDelivered uint64
}

// Net is one assembled deployment: one or more domains sharing a
// fabric and an IP network. The embedded Domain is domain 0, so on a
// flat deployment — the single-domain case NewTestbed and NewXunet
// build — n.E, n.TraceC, n.Faults, n.TS, n.Routers, n.FlightDumps and
// n.HealthEvents are the whole deployment's.
type Net struct {
	*Domain
	Domains []*Domain
	// G is the shard group the domains' engines belong to; nil when the
	// deployment runs on one plain engine (NewTestbed, NewXunet).
	G      *sim.ShardGroup
	CM     sim.CostModel
	Fabric *xswitch.Fabric
	IPNet  *memnet.Network
	// Prof is the deployment's execution profiler (nil unless
	// Options.Prof armed it): one EngineProf per domain
	// plus, on a shard group, the window/stall/matrix accounting, served
	// by every router's MGMT prof views.
	Prof        *prof.Profiler
	opts        Options
	provisioned int // VCs construction set up: the signaling PVC mesh, the carrier circuits
}

// ShardedNet is the name NewSharded's result had before every
// deployment became a Net.
type ShardedNet = Net

// newNet builds an empty deployment with one domain per shard of g, or
// a single domain on a plain engine when g is nil. Domain 0's planes
// double as the fabric- and network-wide ones, which every element
// without a domain override of its own falls back to.
func newNet(opts Options, g *sim.ShardGroup) *Net {
	var pf *prof.Profiler
	if opts.Prof {
		pf = prof.New()
	}
	// The profiler attaches before the fabric and machines exist so
	// construction-time label interning (trunk tx/arrival, proc kinds)
	// lands in the table.
	var engines []*sim.Engine
	if g == nil {
		engines = []*sim.Engine{sim.New(opts.Seed)}
		engines[0].AttachProfiler(pf)
	} else {
		for i := range g.Shards() {
			engines = append(engines, g.Shard(i))
		}
		g.AttachProfiler(pf)
	}
	n := &Net{
		G:      g,
		CM:     sim.DefaultCostModel(),
		Fabric: xswitch.NewFabric(engines[0]),
		IPNet:  memnet.New(engines[0]),
		Prof:   pf,
		opts:   opts,
	}
	for i, e := range engines {
		dom := &Domain{Index: i, E: e, TraceC: trace.NewCollector(e.Now)}
		dom.TraceC.SetEnabled(!opts.DisableTracing)
		if opts.TraceSampleEvery > 1 {
			dom.TraceC.SetSampleEvery(opts.TraceSampleEvery)
		}
		dom.TraceC.OnDump(func(t *trace.Trace, tree string) {
			dom.FlightDumps = append(dom.FlightDumps, tree)
		})
		if opts.TSeries != nil {
			dom.TS = tseries.New(*opts.TSeries)
		}
		if opts.Faults != nil {
			fc := *opts.Faults
			if fc.Seed == 0 {
				// Derive from the workload seed so distinct testbeds get
				// distinct fault schedules by default, deterministically.
				fc.Seed = opts.Seed*0x9E3779B97F4A7C15 + 0xC4A05
			}
			// Domain 0 keeps the base fault seed; others draw decorrelated
			// streams.
			fc.Seed = sim.ShardSeed(fc.Seed, i)
			dom.Faults = faults.NewPlane(fc)
			dom.Faults.AttachTrace(dom.TraceC, e.Now)
		}
		n.Domains = append(n.Domains, dom)
	}
	n.Domain = n.Domains[0]
	n.Fabric.TraceC, n.Fabric.Faults = n.TraceC, n.Faults
	if n.TS != nil && len(n.Domains) == 1 {
		// The fabric registry is written by every shard, so only a
		// single-domain store may scrape it. Its metric names already carry
		// the fabric. prefix; machine registries get their router's address
		// as prefix when addRouter tracks them.
		n.TS.TrackRegistry("", n.Fabric.Obs)
	}
	return n
}

// StartTrunkFlapping begins the fault planes' trunk flap schedules,
// running until the given sim-time cutoff (trunks always end up;
// boundary trunks never flap, see xswitch.StartFlapping).
func (n *Net) StartTrunkFlapping(until time.Duration) {
	n.Fabric.StartFlapping(until)
}

// RunUntil advances the whole deployment to virtual time t.
func (n *Net) RunUntil(t time.Duration) {
	if n.G != nil {
		n.G.RunUntil(t)
	} else {
		n.E.RunUntil(t)
	}
}

// Close kills every live process and joins every goroutine the
// deployment's engines own. Always call it (tests defer it).
func (n *Net) Close() {
	if n.G != nil {
		n.G.Close()
	} else {
		n.E.Shutdown()
	}
}

// defaultHealthRules are the watermark rules StartTSeries installs: a
// trunk's between-tick queue high-water past QueueWatermarkCells, a
// burst of signaling retransmissions in one tick, and a burst of
// flight-recorder dumps in one tick.
func defaultHealthRules() []tseries.Rule {
	return []tseries.Rule{
		{Name: "trunk-queue-buildup", Series: "fabric.trunk.*.qdepth", Threshold: QueueWatermarkCells, OnAux: true},
		{Name: "retransmit-spike", Series: "*.sighost.rel.retransmits", Threshold: 3},
		{Name: "flight-dump-burst", Series: "*.trace.flight.dumps", Threshold: 3},
	}
}

// QueueWatermarkCells is the queue-depth high-water (in cells) at which
// the trunk-queue-buildup rule fires. A DS3 trunk serializes a cell in
// ~9.4µs, so 16 queued cells is ~150µs of standing delay — congestion
// onset, well before the 2048-cell overflow point.
const QueueWatermarkCells = 16

// StartTSeries begins every domain's scrape tick chain, each on its own
// engine over only the series its domain owns: every store interval the
// metrics are sampled and the watermark rules evaluated, until the
// given sim-time cutoff (self-rescheduling events would otherwise keep
// Run from draining). It registers the trunk and IP-link sources,
// installs defaultHealthRules, and wires rule fires to dump the flight
// recorder's recent traces. No-op unless Options.TSeries armed the
// stores. Call it after the topology is assembled, before running.
func (n *Net) StartTSeries(until time.Duration) {
	if n.TS == nil {
		return
	}
	for _, dom := range n.Domains {
		n.Fabric.RegisterTSeries(dom.TS, dom.E)
		n.IPNet.RegisterTSeries(dom.TS, dom.E)
		for _, r := range defaultHealthRules() {
			dom.TS.AddRule(r)
		}
		if n.Prof != nil && n.G != nil {
			// Engine-progress series, sampled in engine context at fixed
			// virtual-history points — deterministic, so merged exports may
			// carry it. Domain index in the name keeps merged series disjoint.
			dom.TS.TrackRateFunc(fmt.Sprintf("sim.shard.%d.events", dom.Index), dom.E.EventsExecuted, 0, 0)
		}
		dom.TS.OnHealthEvent(func(ev tseries.HealthEvent) {
			dom.HealthEvents = append(dom.HealthEvents, ev)
			if ev.State == "fire" {
				dom.TraceC.DumpRecent(4, ev.Rule)
			}
		})
		interval := dom.TS.Interval()
		var tick func()
		tick = func() {
			dom.TS.Tick(dom.E.Now())
			if dom.E.Now()+interval <= until {
				dom.E.Schedule(interval, tick)
			}
		}
		dom.E.Schedule(interval, tick)
	}
}

// addRouter creates a router on dom attached to sw, starts its
// signaling entity and wires every plane it touches — engine, trace
// collector, fault plane, tseries store — to the domain's own. The
// signaling PVCs come later, from mesh.
func (n *Net) addRouter(dom *Domain, addr atm.Addr, sw *xswitch.Switch, ipAddr memnet.IPAddr) (*Router, error) {
	ip, err := n.IPNet.AddNodeOn(string(addr), ipAddr, dom.E)
	if err != nil {
		return nil, err
	}
	stack, err := core.NewRouter(dom.E, n.CM, core.RouterConfig{
		Name: string(addr), Addr: addr, IP: ip, Fabric: n.Fabric, Switch: sw,
		DeviceBuffers: n.opts.DeviceBuffers, FDTableSize: n.opts.FDTableSize,
	})
	if err != nil {
		return nil, err
	}
	stack.M.TraceC = dom.TraceC
	if len(dom.Routers) == 0 {
		registerDomainStats(stack.M.Obs, dom)
	}
	ep := n.Fabric.Endpoint(addr)
	ep.SetTrace(dom.TraceC)
	r := &Router{Stack: stack, dom: dom, stacks: []*core.Stack{stack}}
	r.Sig = signaling.StartSim(stack, n.Fabric)
	if n.opts.DisableCallLogging {
		r.Sig.SH.SetLogging(false)
	}
	if dom.Faults != nil {
		// Chaos mode: arm the self-healing machinery and thread the
		// plane through this router's transports.
		r.Sig.SH.EnableReliability(signaling.DefaultRelConfig())
		r.Sig.SH.EnableJournal(0)
		r.Sig.Faults = dom.Faults
		ep.SetFaults(dom.Faults)
		ip.SetFaults(dom.Faults)
		stack.M.Dev.SetFaults(dom.Faults)
		r.Sig.SH.SetViews(map[string]func() string{
			signaling.MgmtFaults:     func() string { return dom.Faults.Obs.Snapshot().Text() },
			signaling.MgmtFaultsJSON: func() string { return dom.Faults.Obs.Snapshot().JSON() },
		})
	}
	if dom.TS != nil {
		// Machine metrics join the scrape under the router's address
		// (lazily registered ones — journal, per-peer backlogs — are
		// adopted by the store's growth rescan), and the MGMT tseries/
		// health queries answer from the domain's store.
		dom.TS.TrackRegistry(string(addr)+".", stack.M.Obs)
		r.Sig.SH.SetViews(map[string]func() string{
			signaling.MgmtTSeries: dom.TS.Text, signaling.MgmtTSeriesJSON: dom.TS.JSON,
			signaling.MgmtHealth: dom.TS.HealthText, signaling.MgmtHealthJSON: dom.TS.HealthJSON,
		})
	}
	if n.Prof != nil {
		// Any router — any domain — serves the deployment-wide profile:
		// the snapshot reads are atomic, so cross-shard queries are safe.
		r.Sig.SH.SetViews(map[string]func() string{
			signaling.MgmtProf: n.Prof.Text, signaling.MgmtProfJSON: n.Prof.JSON, signaling.MgmtProfFlame: n.Prof.FlameFolded,
		})
	}
	r.Lib = ulib.New(ip.Addr)
	dom.Routers = append(dom.Routers, r)
	return r, nil
}

// mesh provisions the full sighost signaling mesh: each router, in
// creation order, gets PVCs to every router created before it. All
// build-time, so cross-domain PVCs may still cross shards.
func (n *Net) mesh() error {
	var all []*Router
	for _, dom := range n.Domains {
		all = append(all, dom.Routers...)
	}
	for i, a := range all {
		for _, b := range all[:i] {
			if err := signaling.ConnectSighosts(a.Sig, b.Sig); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddHost creates an IP-connected host behind a router, wired over
// FDDI, running an anand client. Hosts number from .11 on their
// router's subnet.
func (n *Net) AddHost(name atm.Addr, r *Router) (*Host, error) {
	routerIP := r.Stack.M.IP
	ip, err := n.IPNet.AddNodeOn(string(name), routerIP.Addr+memnet.IPAddr(9+len(r.stacks)), r.dom.E)
	if err != nil {
		return nil, err
	}
	n.IPNet.Connect(ip, routerIP, memnet.FDDI())
	ip.SetDefaultRoute(routerIP)
	routerIP.AddRoute(ip.Addr, ip)
	stack := core.NewHost(r.dom.E, n.CM, core.HostConfig{
		Name: string(name), Addr: name, IP: ip, RouterIP: routerIP.Addr,
		DeviceBuffers: n.opts.DeviceBuffers, FDTableSize: n.opts.FDTableSize,
	})
	stack.M.TraceC = r.dom.TraceC
	if r.dom.Faults != nil {
		ip.SetFaults(r.dom.Faults)
		stack.M.Dev.SetFaults(r.dom.Faults)
	}
	h := &Host{Stack: stack, Router: r}
	r.stacks = append(r.stacks, stack)
	h.Lib = ulib.New(routerIP.Addr)
	h.Anand = anand.StartClient(stack, routerIP.Addr, signaling.AnandPort)
	return h, nil
}

// addSites gives a flat deployment its routers — site k, counted from
// 1, lives at 10.k.0.1 — and meshes them.
func (n *Net) addSites(addrs []atm.Addr, switches []*xswitch.Switch) error {
	for i, addr := range addrs {
		if _, err := n.addRouter(n.Domain, addr, switches[i], memnet.IP4(10, byte(i+1), 0, 1)); err != nil {
			return err
		}
	}
	err := n.mesh()
	n.provisioned = n.Fabric.ActiveVCs()
	return err
}

// NewTestbed builds the paper's measurement testbed: two routers,
// mh.rt and ucb.rt, across a three hop (two switch) DS3 path.
func NewTestbed(opts Options) (*Net, *Router, *Router, error) {
	n := newNet(opts.withDefaults(), nil)
	swA, swB := xswitch.Testbed(n.Fabric)
	if err := n.addSites([]atm.Addr{"mh.rt", "ucb.rt"}, []*xswitch.Switch{swA, swB}); err != nil {
		return nil, nil, nil, err
	}
	return n, n.Routers[0], n.Routers[1], nil
}

// NewXunet builds the five-site nationwide Xunet 2 deployment with one
// router per site.
func NewXunet(opts Options) (*Net, map[xswitch.XunetSite]*Router, error) {
	n := newNet(opts.withDefaults(), nil)
	bySite := xswitch.Xunet(n.Fabric)
	var addrs []atm.Addr
	var switches []*xswitch.Switch
	for _, site := range xswitch.XunetSites() {
		addrs = append(addrs, atm.Addr(xswitch.SiteRouterAddr(site)))
		switches = append(switches, bySite[site])
	}
	if err := n.addSites(addrs, switches); err != nil {
		return nil, nil, err
	}
	routers := make(map[xswitch.XunetSite]*Router, len(addrs))
	for i, site := range xswitch.XunetSites() {
		routers[site] = n.Routers[i]
	}
	return n, routers, nil
}

// NewSharded builds a sharded deployment from the storm config's
// topology fields: cfg.Domains switches in a ring joined by DS3 trunks
// of cfg.TrunkDelay — the shard boundaries, whose propagation delay
// funds the group's conservative lookahead — each with
// cfg.SighostsPerDomain routers at 10.<domain>.<k>.1, the full sighost
// signaling mesh, and (when Domains > 1) one pre-provisioned
// cross-domain carrier circuit per adjacent pair. Build-time assembly is
// single-threaded; the fabric is sealed against cross-shard setup
// before the caller runs the group.
func NewSharded(opts Options, cfg StormConfig) (*Net, error) {
	opts = opts.withDefaults()
	cfg.Domains, cfg.SighostsPerDomain = max(cfg.Domains, 1), max(cfg.SighostsPerDomain, 1)
	var lookahead time.Duration
	if cfg.Domains > 1 {
		if cfg.TrunkDelay <= 0 {
			cfg.TrunkDelay = 2 * time.Millisecond
		}
		lookahead = cfg.TrunkDelay
	}
	n := newNet(opts, sim.NewShardGroup(opts.Seed, cfg.Domains, lookahead))
	if err := n.assembleRing(cfg); err != nil {
		n.Close()
		return nil, err
	}
	n.Fabric.SealCrossShard()
	n.provisioned = n.Fabric.ActiveVCs()
	return n, nil
}

func (n *Net) assembleRing(cfg StormConfig) error {
	switches := make([]*xswitch.Switch, len(n.Domains))
	for i, dom := range n.Domains {
		sw, err := n.Fabric.AddSwitchOn(fmt.Sprintf("sw.d%d", i), dom.E)
		if err != nil {
			return err
		}
		sw.SetTrace(dom.TraceC)
		sw.SetFaults(dom.Faults)
		switches[i] = sw
	}
	for i := 0; i+1 < len(switches); i++ {
		n.Fabric.ConnectSwitches(switches[i], switches[i+1], xswitch.DS3(cfg.TrunkDelay))
	}
	if len(switches) > 2 {
		n.Fabric.ConnectSwitches(switches[len(switches)-1], switches[0], xswitch.DS3(cfg.TrunkDelay))
	}
	for i, dom := range n.Domains {
		for k := 0; k < cfg.SighostsPerDomain; k++ {
			addr := atm.Addr(fmt.Sprintf("d%d.r%d", i, k))
			if _, err := n.addRouter(dom, addr, switches[i], memnet.IP4(10, byte(i), byte(k+1), 1)); err != nil {
				return err
			}
		}
	}
	if err := n.mesh(); err != nil {
		return err
	}
	if len(n.Domains) == 1 {
		return nil
	}
	// Cross-domain carrier circuits: domain i's first router to domain
	// i+1's, provisioned now so runtime data can cross boundaries
	// without any cross-shard control action.
	for i, dom := range n.Domains {
		next := n.Domains[(i+1)%len(n.Domains)]
		src, dst := dom.Routers[0], next.Routers[0]
		vc, err := n.Fabric.SetupVC(src.Stack.Addr, dst.Stack.Addr, qos.BestEffortQoS)
		if err != nil {
			return fmt.Errorf("testbed: cross carrier d%d->d%d: %w", i, next.Index, err)
		}
		src.Sig.SH.AllowPVC(vc.SrcVCI)
		dst.Sig.SH.AllowPVC(vc.DstVCI)
		dom.crossVC = vc
	}
	return nil
}

// mergedExport merges every domain's time-series export into one
// deterministic snapshot: series name-sorted across domains (names are
// disjoint by construction — trunks, links and registries are owned by
// exactly one shard), rule states re-sorted the same way, events
// ordered by time then domain (the stable sort keeps the order they
// were appended in). Ticks and interval come from domain 0. On a single
// domain it is that domain's own export; as JSON it is byte-identical
// for same-seed runs at any worker count.
func (n *Net) mergedExport() tseries.Export {
	var out tseries.Export
	for _, dom := range n.Domains {
		if dom.TS == nil {
			continue
		}
		ex := dom.TS.Export()
		if out.Interval == 0 {
			out.Interval, out.Ticks = ex.Interval, ex.Ticks
		}
		out.Series = append(out.Series, ex.Series...)
		out.Rules = append(out.Rules, ex.Rules...)
		out.Events = append(out.Events, ex.Events...)
	}
	sort.Slice(out.Series, func(i, j int) bool { return out.Series[i].Name < out.Series[j].Name })
	sort.Slice(out.Rules, func(i, j int) bool {
		if out.Rules[i].Rule != out.Rules[j].Rule {
			return out.Rules[i].Rule < out.Rules[j].Rule
		}
		return out.Rules[i].Series < out.Rules[j].Series
	})
	sort.SliceStable(out.Events, func(i, j int) bool { return out.Events[i].At < out.Events[j].At })
	return out
}

// Endpoint is anything applications run on: a Router or a Host.
type Endpoint interface {
	EndStack() *core.Stack
	EndLib() *ulib.Lib
}

// EndStack implements Endpoint.
func (r *Router) EndStack() *core.Stack { return r.Stack }

// EndLib implements Endpoint.
func (r *Router) EndLib() *ulib.Lib { return r.Lib }

// EndStack implements Endpoint.
func (h *Host) EndStack() *core.Stack { return h.Stack }

// EndLib implements Endpoint.
func (h *Host) EndLib() *ulib.Lib { return h.Lib }

// EchoServer runs the paper's echo service on an endpoint: it exports
// the name, then accepts every incoming call, binds the granted VCI and
// drains received frames, counting them.
type EchoServer struct {
	Service string
	// Received counts frames drained; Accepted counts calls accepted.
	Received uint64
	Accepted uint64
	// ModifyQoS, when non-empty, is the server's counter-offer.
	ModifyQoS string

	proc    *kern.Proc
	workers []*kern.Proc
}

// Kill terminates the server process and its per-call workers
// (robustness experiments: the whole remote application fails).
func (s *EchoServer) Kill() {
	s.proc.Kill()
	for _, w := range s.workers {
		w.Kill()
	}
}

// StartEchoServer launches the Figure 5 flow on ep.
func StartEchoServer(ep Endpoint, service string, notifyPort uint16) *EchoServer {
	srv := &EchoServer{Service: service}
	stack, lib := ep.EndStack(), ep.EndLib()
	srv.proc = stack.Spawn("echo-server", func(p *kern.Proc) {
		if err := lib.ExportService(p, service, notifyPort); err != nil {
			return
		}
		kl, err := lib.CreateReceiveConnection(p, notifyPort)
		if err != nil {
			return
		}
		for {
			req, err := lib.AwaitServiceRequest(p, kl)
			if err != nil {
				return
			}
			offer := srv.ModifyQoS
			if offer == "" {
				offer = req.QoS
			}
			vci, _, err := req.Accept(offer)
			if err != nil {
				continue
			}
			srv.Accepted++
			// Spawn a worker to drain the circuit, as the paper's
			// servers "spawn off a child to do the actual work".
			cookie := req.Cookie
			srv.workers = append(srv.workers, stack.Spawn("echo-worker", func(w *kern.Proc) {
				sock, err := stack.PF.Socket(w)
				if err != nil {
					return
				}
				if err := sock.Bind(vci, cookie); err != nil {
					return
				}
				for {
					if _, err := sock.Recv(); err != nil {
						return
					}
					srv.Received++
				}
			}))
		}
	})
	return srv
}

// CallResult records one client call attempt for the storm workloads.
type CallResult struct {
	OK        bool
	Err       error
	SetupTime time.Duration // virtual time from request to VCI_FOR_CONN
	VCI       atm.VCI
	QoS       string
}

// OpenAndUseFrames performs the Figure 6 client flow on ep: open a
// connection, connect a socket with the cookie, send frames, close.
// Each data frame is padded to frameBytes (<= 0 keeps the tiny default
// frames). Multi-cell frames let load workloads actually exercise trunk
// queues: a 1400-byte frame is ~30 cells arriving at host-interface
// rate and draining at trunk rate.
func OpenAndUseFrames(ep Endpoint, p *kern.Proc, dest atm.Addr, service string, notifyPort uint16, qosStr string, frames, frameBytes int, hold func(*kern.Proc)) CallResult {
	stack, lib := ep.EndStack(), ep.EndLib()
	start := p.SP.Now()
	conn, err := lib.OpenConnection(p, dest, service, notifyPort, "testbed", qosStr)
	if err != nil {
		return CallResult{Err: err}
	}
	res := CallResult{OK: true, SetupTime: p.SP.Now() - start, VCI: conn.VCI, QoS: conn.QoS}
	sock, err := stack.PF.Socket(p)
	if err != nil {
		return CallResult{Err: err}
	}
	if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
		return CallResult{Err: err}
	}
	// Data frames sent on this circuit join the call's span tree.
	sock.SetTrace(conn.Trace)
	if frames > 0 {
		// The stack is datagram-like: frames sent before the server has
		// bound its socket are legitimately dropped, so give the far
		// side a moment to finish its accept_connection/bind sequence.
		p.SP.Sleep(100 * time.Millisecond)
	}
	for i := 0; i < frames; i++ {
		payload := []byte(fmt.Sprintf("frame %d", i))
		if frameBytes > len(payload) {
			payload = append(payload, make([]byte, frameBytes-len(payload))...)
		}
		_ = sock.Send(payload)
	}
	if hold != nil {
		hold(p)
	} else if frames > 0 {
		// Linger so in-flight cells drain before the close tears the
		// circuit's switch entries down.
		p.SP.Sleep(100 * time.Millisecond)
	}
	sock.Close()
	return res
}

// registerDomainStats surfaces what a whole domain shares — its
// engine's internals and its trace collector's counters — as read-through
// metrics in its first router's registry, so MGMT stats, the Report and
// the domain's tseries store see each counter once, next to the other
// telemetry. The engine's are executed events, process dispatches,
// event-pool hit/miss and the heap high-water mark; the collector's
// include dropped-span and flight-ring-overflow accounting. They read
// plain fields, so sampling must happen in engine context (mgmt queries,
// tseries ticks, post-run snapshots all do); at a fixed point of the
// virtual history the values are deterministic, safe for the byte-diffed
// exports.
func registerDomainStats(reg *obs.Registry, dom *Domain) {
	e, tc := dom.E, dom.TraceC
	reg.Func("sim.events.executed", e.EventsExecuted)
	reg.Func("sim.procs.dispatched", e.ProcDispatches)
	reg.Func("sim.pool.hits", e.TimerPoolHits)
	reg.Func("sim.pool.misses", e.TimerPoolMisses)
	reg.Func("sim.heap.hiwat", e.HeapHighWater)
	reg.Func("trace.traces.started", func() uint64 { return tc.StatsNow().Started })
	reg.Func("trace.traces.sampled", func() uint64 { return tc.StatsNow().Sampled })
	reg.Func("trace.traces.completed", func() uint64 { return tc.StatsNow().Completed })
	// Active is a gauge, not a counter, so it stays off the Func surface
	// (mgmt counters are expected to be monotonic); StatsNow exposes it.
	reg.Func("trace.spans.dropped", func() uint64 { return tc.StatsNow().DroppedSpans })
	reg.Func("trace.flight.evicted", func() uint64 { return tc.StatsNow().Evicted })
	reg.Func("trace.flight.dumps", func() uint64 { return tc.StatsNow().Dumps })
}

// Quiesced describes what a router's sighost has not drained — its
// Residue, else its open application connections — or is "" when clean.
func Quiesced(r *Router) string {
	if msg := r.Sig.SH.Residue(); msg != "" || r.Sig.AppConns() == 0 {
		return msg
	}
	return fmt.Sprintf("%s application connections open: %d", r.Stack.Addr, r.Sig.AppConns())
}

// Audit lists what the deployment has not drained, nil when clean: each
// router's Quiesced text and the Orc handlers (IPPROTO_ATM's bindings
// among them) and PF_XUNET sockets it holds under a grant its fabric
// endpoint no longer holds — PVCs are granted like any circuit — then
// each free list whose records out differ from what its owner says they
// must be (each domain's engine, each router's sighost, each router's or
// host's mbuf pool and IP node, the fabric's trunks), then any VC beyond
// those construction set up.
func (n *Net) Audit() (leaks []string) {
	check := func(owner any) sim.Audit {
		return func(list string, out, want int) {
			if out != want {
				leaks = append(leaks, fmt.Sprintf("%v %s out: %d, want %d", owner, list, out, want))
			}
		}
	}
	for _, dom := range n.Domains {
		dom.E.Audit(check(fmt.Sprintf("domain %d", dom.Index)))
		for _, r := range dom.Routers {
			if msg := Quiesced(r); msg != "" {
				leaks = append(leaks, msg)
			}
			r.Sig.Audit(check(r.Stack.Addr))
			for _, s := range r.stacks {
				s.M.Pool.Audit(check(s.Addr))
				s.M.IP.Audit(check(s.Addr))
			}
			ep, s := n.Fabric.Endpoint(r.Stack.Addr), r.Stack
			for i, stale := range [][]atm.VCI{s.M.Orc.Stale(ep.Holds), s.PF.Stale(ep.Holds)} {
				if stale != nil {
					leaks = append(leaks, fmt.Sprintf("%s %s holds VCIs its endpoint has not granted: %v",
						r.Stack.Addr, [...]string{"hobbit", "pfxunet"}[i], stale))
				}
			}
		}
	}
	n.Fabric.Audit(check("fabric"))
	if vcs := n.Fabric.ActiveVCs(); vcs != n.provisioned {
		leaks = append(leaks, fmt.Sprintf("fabric holds %d VCs, %d provisioned", vcs, n.provisioned))
	}
	return leaks
}
