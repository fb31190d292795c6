package main

import (
	"net"
	"runtime"
	"time"

	"xunet/internal/aal5"
	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/faults"
	"xunet/internal/hobbit"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
	"xunet/internal/prof"
	"xunet/internal/qos"
	"xunet/internal/sigmsg"
	"xunet/internal/signaling"
	"xunet/internal/sim"
	"xunet/internal/trace"
	"xunet/internal/xswitch"
)

// This file holds the isolated layer probes of the traced run: each
// times calls into one layer's public functions, with inputs of the
// size the workloads use, from outside the layer. A probe's number is
// the cost of the layer alone; the workload's own per-op counts say how
// often the layer runs.

// probeBudget is how long one probe keeps sampling.
const probeBudget = 30 * time.Millisecond

// sink keeps probe results alive so the compiler cannot remove the
// measured calls.
var sink int

// perOp times fn, which performs a layer operation n times, in batches
// until probeBudget is spent, and returns the median batch's
// nanoseconds per operation.
func perOp(n int, fn func(n int)) float64 {
	fn(n) // warm pools and caches
	var samples []float64
	for start := time.Now(); len(samples) < 5 || (time.Since(start) < probeBudget && len(samples) < 200); {
		t0 := time.Now()
		fn(n)
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(samples)
}

// allocsPer returns the heap allocations one call of fn makes, averaged
// over n calls.
func allocsPer(n int, fn func()) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probe is one isolated measurement: the per-layer metrics it produces
// and the workload kinds whose traced run includes it.
type probe struct {
	name string
	on   []string // workload kinds; none = every workload
	run  func(L map[string]float64)
}

// kinds of workload a probe can attach to.
const (
	kindStorm      = "storm"
	kindData       = "data"
	kindRealSetup  = "real_setup"
	kindRealFrames = "real_frames"
)

var probes = []probe{
	{"calib", nil, probeCalib},
	{"floor", []string{kindRealSetup, kindRealFrames}, probeFloor},
	{"sim", []string{kindStorm, kindData}, probeSim},
	{"xswitch", []string{kindStorm, kindData}, probeXswitch},
	{"sar", []string{kindData}, probeSAR},
	{"mbuf", []string{kindData}, probeMbuf},
	{"memnet", []string{kindStorm, kindData}, probeMemnet},
	{"sigmsg", []string{kindStorm, kindRealSetup}, probeSigmsg},
	{"instruments", []string{kindStorm, kindData}, probeInstruments},
}

// calibEvents is the machine-class figure every wall number is read
// against: pooled schedule+dispatch cycles per second on one engine.
func calibEvents() (nsPerEvent float64) {
	e := sim.New(1)
	fn := func() {}
	return perOp(1000, func(n int) {
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		e.Run()
	})
}

func probeCalib(L map[string]float64) { L["calib.sim_events_per_s"] = 1e9 / calibEvents() }

// probeFloor measures what the loopback itself costs: a TCP RPC the
// way the client library does one (dial, framed request, framed reply,
// close) and a bare UDP round trip. A real setup cannot beat
// 2 RPCs + 1 carrier round trip.
func probeFloor(L map[string]float64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if req, err := signaling.ReadFrame(c); err == nil {
				_ = signaling.WriteFrame(c, req)
			}
			c.Close()
		}
	}()
	req := make([]byte, 48)
	L["floor.tcp_rpc_us"] = perOp(50, func(n int) {
		for i := 0; i < n; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			if signaling.WriteFrame(c, req) == nil {
				if b, err := signaling.ReadFrame(c); err == nil {
					sink += len(b)
				}
			}
			c.Close()
		}
	}) / 1e3

	srv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return
	}
	defer srv.Close()
	cli, err := net.DialUDP("udp4", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return
	}
	defer cli.Close()
	go func() {
		buf := make([]byte, 256)
		for {
			n, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			_, _ = srv.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	buf := make([]byte, 256)
	L["floor.udp_rtt_us"] = perOp(200, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cli.Write(req); err != nil {
				return
			}
			m, err := cli.Read(buf)
			if err != nil {
				return
			}
			sink += m
		}
	}) / 1e3
}

func probeSim(L map[string]float64) {
	L["sim.ns_per_event"] = calibEvents()
	e := sim.New(1)
	stop := false
	e.Go("switcher", func(p *sim.Proc) {
		for !stop {
			p.Sleep(time.Microsecond)
		}
	})
	L["sim.proc_switch_ns"] = perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			e.RunFor(time.Microsecond)
		}
	})
	stop = true
	e.RunFor(time.Millisecond)
	e.Shutdown()
}

// cellCounter is the fabric probe's receiving endpoint.
type cellCounter struct{ n int }

func (c *cellCounter) ReceiveCell(atm.Cell) { c.n++ }

func probeXswitch(L map[string]float64) {
	e := sim.New(1)
	f := xswitch.NewFabric(e)
	swA, swB := xswitch.Testbed(f)
	rx := &cellCounter{}
	epA, err := f.Attach("a", nil, swA, xswitch.TAXI())
	if err != nil {
		return
	}
	if _, err := f.Attach("b", rx, swB, xswitch.TAXI()); err != nil {
		return
	}
	vc, err := f.SetupVC("a", "b", qos.BestEffortQoS)
	if err != nil {
		return
	}
	// One frame of 32 cells across the 3-hop path, as
	// BenchmarkFrameAcrossTestbed sends it.
	const hops = 3
	cells := make([]atm.Cell, 32)
	for i := range cells {
		cells[i].VCI = vc.SrcVCI
	}
	cells[len(cells)-1].PTI = atm.PTIUserData1
	L["xswitch.ns_per_cell_hop"] = perOp(20, func(n int) {
		for i := 0; i < n; i++ {
			for j := range cells {
				epA.SendCell(cells[j])
			}
			e.Run()
		}
	}) / float64(len(cells)*hops)
	sink += rx.n
	L["xswitch.vc_setup_release_ns"] = perOp(200, func(n int) {
		for i := 0; i < n; i++ {
			vc, err := f.SetupVC("a", "b", qos.QoS{Class: qos.CBR, BandwidthKbs: 100})
			if err != nil {
				return
			}
			vc.Release()
		}
	})
	e.Shutdown()
}

// cellFn adapts a function to hobbit.CellTx.
type cellFn func(atm.Cell)

func (f cellFn) SendCell(c atm.Cell) { f(c) }

func probeSAR(L map[string]float64) {
	payload := make([]byte, 1400)
	rx := hobbit.NewDriver(cost.NewMeter())
	rxb := hobbit.NewBoard(nil)
	rx.AttachBoard(rxb)
	tx := hobbit.NewDriver(cost.NewMeter())
	tx.AttachBoard(hobbit.NewBoard(cellFn(rxb.ReceiveCell)))
	rx.SetHandler(10, func(atm.VCI, *mbuf.Chain) { sink++ })
	L["hobbit.sar_ns_per_frame_1400"] = perOp(100, func(n int) {
		for i := 0; i < n; i++ {
			if err := tx.Output(10, mbuf.FromBytes(payload)); err != nil {
				return
			}
		}
	})

	frame, err := aal5.BuildFrame(payload, 0)
	if err != nil {
		return
	}
	r := aal5.NewReassembler(0)
	cycle := func() {
		cells, _ := aal5.Segment(frame, 0, 1)
		for j := range cells {
			if p, _, done, _ := r.Push(&cells[j]); done {
				sink += len(p)
			}
		}
	}
	L["aal5.segment_reasm_ns_1400"] = perOp(100, func(n int) {
		for i := 0; i < n; i++ {
			cycle()
		}
	})
	L["aal5.allocs_per_frame"] = allocsPer(200, cycle)

	c := atm.Cell{Header: atm.Header{VCI: 1000, PTI: atm.PTIUserData1}}
	wire := make([]byte, atm.CellSize)
	L["atm.cell_codec_ns"] = perOp(5000, func(n int) {
		for i := 0; i < n; i++ {
			c.EncodeTo(wire)
			if d, err := atm.Decode(wire); err == nil {
				sink += int(d.VCI)
			}
		}
	})
}

func probeMbuf(L map[string]float64) {
	payload := make([]byte, 1400)
	hdr := make([]byte, 8)
	L["mbuf.from_bytes_ns_1400"] = perOp(1000, func(n int) {
		for i := 0; i < n; i++ {
			c := mbuf.FromBytes(payload)
			sink += c.Len()
			c.Release()
		}
	})
	L["mbuf.prepend_ns"] = perOp(1000, func(n int) {
		for i := 0; i < n; i++ {
			c := mbuf.FromBytes(hdr)
			c.Prepend(hdr)
			sink += c.Len()
			c.Release()
		}
	})
	L["mbuf.allocs_per_frame"] = allocsPer(500, func() {
		c := mbuf.FromBytes(payload)
		c.Prepend(hdr)
		c.Release()
	})
}

// probeMemnet times one message across an established in-memory
// stream: what every RPC and notification pays per message.
func probeMemnet(L map[string]float64) {
	e := sim.New(1)
	n := memnet.New(e)
	h := n.MustAddNode("h", memnet.IP4(10, 0, 0, 1))
	r := n.MustAddNode("r", memnet.IP4(10, 0, 0, 2))
	n.Connect(h, r, memnet.FDDI())
	h.SetDefaultRoute(r)
	r.SetDefaultRoute(h)
	l, err := r.ListenStream(5000)
	if err != nil {
		return
	}
	e.Go("server", func(p *sim.Proc) {
		s, ok := l.Accept(p)
		if !ok {
			return
		}
		for {
			if _, ok := s.Recv(p); !ok {
				return
			}
			sink++
		}
	})
	var cli *memnet.Stream
	e.Go("client", func(p *sim.Proc) {
		cli, _ = h.DialStream(p, r.Addr, 5000)
		p.Park()
	})
	e.RunFor(time.Second)
	if cli == nil {
		return
	}
	msg := make([]byte, 64)
	L["memnet.stream_msg_ns"] = perOp(64, func(n int) {
		for i := 0; i < n; i++ {
			_ = cli.Send(msg)
		}
		e.RunFor(10 * time.Millisecond)
	})
	e.Shutdown()
}

// probeSigmsg times the codec on the two messages every call starts
// with: the application's CONNECT_REQ and the peer SETUP it becomes.
func probeSigmsg(L map[string]float64) {
	msgs := []sigmsg.Msg{
		{Kind: sigmsg.KindConnectReq, Dest: "ucb.rt", Service: "storm", QoS: "cbr:100", NotifyPort: 2000, Comment: "testbed", PID: 7},
		{Kind: sigmsg.KindSetup, Dest: "ucb.rt", Service: "storm", QoS: "cbr:100", CallID: 77, VCI: 40, Cookie: 9},
	}
	var wires [][]byte
	buf := make([]byte, 0, 256)
	for i := range msgs {
		wires = append(wires, msgs[i].AppendTo(nil))
	}
	L["sigmsg.encode_ns"] = perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			buf = msgs[i&1].AppendTo(buf[:0])
		}
		sink += len(buf)
	})
	var dec sigmsg.Decoder
	var m sigmsg.Msg
	L["sigmsg.decode_ns"] = perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			if dec.DecodeInto(&m, wires[i&1]) == nil {
				sink += int(m.Cookie)
			}
		}
	})
	i := 0
	L["sigmsg.allocs_per_msg"] = allocsPer(1000, func() {
		buf = msgs[i&1].AppendTo(buf[:0])
		_ = dec.DecodeInto(&m, buf)
		i++
	})
}

// probeInstruments bounds what turning observability on costs: each
// instrument's enabled per-call price, steady state.
func probeInstruments(L map[string]float64) {
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	L["obs.counter_inc_ns"] = perOp(10000, func(n int) {
		for i := 0; i < n; i++ {
			c.Inc()
		}
	})
	h := reg.Histogram("h")
	L["obs.hist_observe_ns"] = perOp(10000, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(i) * time.Microsecond)
		}
	})

	// A sampled trace of 16 recorded spans, started and finished each
	// cycle, so the collector's per-trace span slice and its bounded
	// flight ring are in steady state (no slice grows with the run).
	var clock time.Duration
	tc := trace.NewCollector(func() time.Duration { return clock })
	tc.SetEnabled(true)
	const spansPerTrace = 16
	id := uint32(0)
	L["trace.sampled_record_ns"] = perOp(200, func(n int) {
		for i := 0; i < n; i++ {
			id++
			root := tc.StartTrace("sighost", "bench", id)
			for j := 0; j < spansPerTrace; j++ {
				tc.Record(root, "xswitch", "hop", clock, clock+1)
			}
			tc.FinishTrace(root, "ok")
		}
	}) / spansPerTrace

	// The profiler's price per engine event: the same schedule+run
	// cycle with and without a profiler attached.
	off := calibEvents()
	e := sim.New(1)
	e.AttachProfiler(prof.New())
	fn := func() {}
	on := perOp(1000, func(n int) {
		for j := 0; j < n; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		e.Run()
	})
	L["prof.enabled_event_ns"] = max(0, on-off)

	// One scrape of a machine-sized registry (64 counters, 8
	// histograms).
	st := tseries.New(tseries.Config{})
	mreg := obs.NewRegistry()
	for i := 0; i < 64; i++ {
		mreg.Counter("c" + string(rune('A'+i%26)) + string(rune('a'+i/26))).Inc()
	}
	for i := 0; i < 8; i++ {
		mreg.Histogram("h" + string(rune('a'+i))).Observe(time.Millisecond)
	}
	st.TrackRegistry("m.", mreg)
	at := time.Duration(0)
	L["tseries.tick_ns"] = perOp(100, func(n int) {
		for i := 0; i < n; i++ {
			at += time.Second
			st.Tick(at)
		}
	})

	fp := faults.NewPlane(faults.Config{})
	L["faults.zero_prob_ns"] = perOp(10000, func(n int) {
		for i := 0; i < n; i++ {
			if fp.Packet(trace.Context{}).Drop {
				sink++
			}
		}
	})
}
