package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"xunet/internal/aal5"
	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// This file is the second half of a traced run: after the traced
// segments, an untraced twin of the workload gives the tracing overhead
// (and, sharded, the worker speedup), and the isolated layer probes
// that belong to the workload's kind run, one span each.

// quickSegments is how many segments a side measurement runs, and
// sideScale how much smaller than the workload's they are.
const (
	quickSegments = 5
	sideScale     = 0.25
)

// quickRate builds a workload untraced, warms it, runs a few segments
// and returns their median rate.
func quickRate(mk func() workload, cfg runConfig) (float64, error) {
	rates, err := alternate(cfg, mk)
	if err != nil {
		return 0, err
	}
	return rates[0], nil
}

// alternate builds variants of a workload untraced and runs their
// segments turn about, so that drift in the machine's speed falls on
// all alike; it returns each variant's median rate.
func alternate(cfg runConfig, mks ...func() workload) ([]float64, error) {
	ws := make([]workload, len(mks))
	for i, mk := range mks {
		w, err := start(mk, cfg.side())
		if err != nil {
			return nil, err
		}
		defer w.close()
		ws[i] = w
	}
	rates := make([][]float64, len(ws))
	for n := 0; n < quickSegments; n++ {
		for i, w := range ws {
			t0 := time.Now()
			ops, failed, err := w.segment()
			if err != nil || failed != 0 {
				return nil, fmt.Errorf("side measurement: %d failed, err=%v", failed, err)
			}
			rates[i] = append(rates[i], float64(ops)/time.Since(t0).Seconds())
		}
	}
	med := make([]float64, len(ws))
	for i := range rates {
		med[i] = median(rates[i])
	}
	return med, nil
}

// side returns the configuration of a side measurement: untraced and
// smaller.
func (c runConfig) side() runConfig {
	c.traced, c.spans = false, nil
	c.scale *= sideScale
	return c
}

// traceExtras fills the per-layer metrics that need more than the
// traced segments themselves.
func traceExtras(def workloadDef, cfg runConfig, r *result, tracedRate float64) error {
	L := r.Layers
	sp := cfg.spans
	side := func(name string, fn func() error) error {
		s := sp.begin("probe."+name, 0)
		defer sp.end(s)
		return fn()
	}

	// The untraced twin: same workload, same seed, nothing armed.
	if err := side("untraced_twin", func() error {
		if def.name != "sim_storm_sharded" {
			rate, err := quickRate(def.mk, cfg)
			if err == nil && rate > 0 {
				L["trace.overhead_pct"] = 100 * (rate - tracedRate) / rate
			}
			return err
		}
		// Sharded: alternate the configured worker count with one
		// worker, segment by segment, and compare medians.
		workers := shardWorkers()
		mk := func(n int) func() workload {
			return func() workload {
				w := newStorm("sharded")
				w.workers = n
				return w
			}
		}
		rates, err := alternate(cfg, mk(workers), mk(1))
		if err != nil {
			return err
		}
		if workers > 1 {
			L["sim.shard.speedup"] = rates[0] / rates[1]
			r.note("sim.shard.speedup measured at workers=%d vs 1, GOMAXPROCS=%d", workers, runtime.GOMAXPROCS(0))
		} else {
			L["sim.shard.speedup"] = 0
			r.note("sim.shard.speedup unmeasured: GOMAXPROCS=1")
		}
		L["trace.overhead_pct"] = 100 * (rates[0] - tracedRate) / rates[0]
		return nil
	}); err != nil {
		return err
	}

	for _, p := range probes {
		if len(p.on) > 0 && !slices.Contains(p.on, def.kind) {
			continue
		}
		_ = side(p.name, func() error { p.run(L); return nil })
	}

	switch def.kind {
	case kindStorm:
		// What the self-healing machinery costs while nothing fails:
		// the flat storm with the fault plane armed at zero
		// probabilities (reliable channel, journal, keepalives on)
		// against the same storm unarmed.
		return side("heal_overhead", func() error {
			rates, err := alternate(cfg, func() workload { return newStorm("flat") }, func() workload { return newStorm("flat-armed") })
			if err != nil {
				return err
			}
			L["sighost.heal_overhead_pct"] = 100 * (rates[0] - rates[1]) / rates[0]
			return nil
		})
	case kindData:
		return side("vci_reuse", func() error { return probeReuse(cfg, L) })
	case kindRealFrames:
		return side("rtnet", func() error { return probeRtnet(cfg, r) })
	case kindRealSetup:
		return side("rtenv", func() error { return probeRtenv(cfg, r) })
	}
	return nil
}

// probeRtnet sizes the carrier beyond the workload's own point: what
// AAL5 framing adds, larger raw frames, and the unbatched fallback.
func probeRtnet(cfg runConfig, r *result) error {
	L := r.Layers
	rate := func(unbatched, raw bool, size int) (float64, error) {
		return quickRate(func() workload { return newRealFrames(unbatched, raw, size, 4000) }, cfg)
	}
	// What AAL5 adds to a frame, measured on the framing alone: the
	// difference of two loopback cycles that each cost 2 us is noise.
	payload := make([]byte, 64)
	var buf []byte
	var seq byte
	L["rtnet.aal5_ns_per_frame"] = perOp(2000, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = aal5.AppendFrame(buf[:0], payload, seq)
			if p, _, err := aal5.ParseFrame(buf); err == nil {
				sink += len(p)
			}
			seq++
		}
	})
	var err error
	if L["rtnet.frames_per_s_1400"], err = rate(false, true, 1400); err != nil {
		return err
	}
	if L["rtnet.frames_per_s_8192"], err = rate(false, true, 8192); err != nil {
		return err
	}
	L["rtnet.fallback_frames_per_s"], err = rate(true, false, 64)
	return err
}

// probeRtenv sizes the real front beyond one caller: registration
// latency, two callers, the unbatched carrier, and how far a setup is
// from the loopback floor.
func probeRtenv(cfg runConfig, r *result) error {
	L := r.Layers
	h, err := signaling.StartReal("probe.rt", "127.0.0.1:0")
	if err != nil {
		return err
	}
	cli := &signaling.RealClient{SighostAddr: h.ListenAddr()}
	var ds []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := cli.ExportService(fmt.Sprintf("svc%d", i), uint16(7000+i)); err != nil {
			h.Close()
			return err
		}
		ds = append(ds, time.Since(t0))
	}
	h.Close()
	L["rtclient.export_p50_us"] = durQuantileUS(ds, 0.5)

	if floor := 2*L["floor.tcp_rpc_us"] + L["floor.udp_rtt_us"]; floor > 0 {
		L["rtenv.setup_floor_multiple"] = L["rtclient.open_p50_us"] / floor
	}
	if L["rtenv.setups_per_s_c2"], err = quickRate(func() workload { return newRealSetup(false, 2, 1600) }, cfg); err != nil {
		return err
	}
	L["rtenv.fallback_setups_per_s"], err = quickRate(func() workload { return newRealSetup(true, 1, 1600) }, cfg)
	return err
}

// probeReuse reproduces the VCI-reuse black hole (README, "VCI
// reuse"): a host client opens a call, sends, closes, opens again and
// sends 100 frames; the second call's frames are lost when it is
// granted the VCI the first one used. The metric is lost / sent on the
// second call.
func probeReuse(cfg runConfig, L map[string]float64) error {
	n, ra, rb, err := testbed.NewTestbed(cfg.side().options())
	if err != nil {
		return err
	}
	defer n.E.Shutdown()
	src, err := n.AddHost("mh.h1", ra)
	if err != nil {
		return err
	}
	dst, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		return err
	}
	srv := testbed.StartEchoServer(dst, "reuse", echoPort)
	n.E.RunUntil(500 * time.Millisecond)
	const frames = 100
	var received [2]uint64
	var openErr error
	src.Stack.Spawn("bench-reuse", func(p *kern.Proc) {
		for call := 0; call < 2; call++ {
			before := srv.Received
			conn, err := src.Lib.OpenConnection(p, "ucb.rt", "reuse", notifyPort(call), "bench", "")
			if err != nil {
				openErr = err
				return
			}
			sock, err := src.Stack.PF.Socket(p)
			if err != nil {
				openErr = err
				return
			}
			if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
				openErr = err
				return
			}
			p.SP.Sleep(500 * time.Millisecond)
			payload := make([]byte, 64)
			for i := 0; i < frames; i++ {
				_ = sock.Send(payload)
				p.SP.Sleep(time.Millisecond)
			}
			p.SP.Sleep(500 * time.Millisecond)
			received[call] = srv.Received - before
			sock.Close()
			p.SP.Sleep(2 * time.Second)
		}
	})
	n.E.RunUntil(n.E.Now() + 30*time.Second)
	if openErr != nil {
		return openErr
	}
	if received[0] != frames {
		return fmt.Errorf("vci reuse probe: first call delivered %d of %d frames", received[0], frames)
	}
	L["protoatm.reuse_lost_ratio"] = float64(frames-received[1]) / frames
	return nil
}
