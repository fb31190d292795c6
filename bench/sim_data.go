package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

// dataCircuits is how many standing circuits a data workload streams
// over.
const dataCircuits = 4

// dataWorkload streams paced frames host to host over circuits opened
// once in set-up: mh.h1 -> mh.rt -> two switches -> ucb.rt -> ucb.h1.
// Signaling is idle during the timed run. The circuits are held for the
// whole run because a host client that reuses a VCI sends into a black
// hole (README, "VCI reuse"); protoatm.reuse_lost_ratio measures that.
type dataWorkload struct {
	simRig
	frameBytes int
	pace       time.Duration
	segVirtual time.Duration
	net        *testbed.Net

	stop      bool
	sent      [dataCircuits]uint64
	next      [dataCircuits]uint64 // receiver's expected sequence number
	delivered uint64
	bad       uint64 // wrong length, unknown circuit or sequence gap
	open      int    // circuits established
	openErr   error

	delivered0 uint64 // at mark()
	virt0      time.Duration
}

func newData(frameBytes int, pace, segVirtual time.Duration) *dataWorkload {
	return &dataWorkload{frameBytes: frameBytes, pace: pace, segVirtual: segVirtual}
}

func (w *dataWorkload) build(cfg runConfig) error {
	w.cfg = cfg
	w.segVirtual = time.Duration(float64(w.segVirtual) * cfg.scale)
	n, ra, rb, err := testbed.NewTestbed(cfg.options())
	if err != nil {
		return err
	}
	w.net, w.fabric, w.prof = n, n.Fabric, n.Prof
	w.now, w.runUntil, w.engineSpan = n.E.Now, n.E.RunUntil, "Engine.RunUntil"
	w.engines = append(w.engines, n.E)
	w.routers = []*testbed.Router{ra, rb}
	src, err := n.AddHost("mh.h1", ra)
	if err != nil {
		return err
	}
	dst, err := n.AddHost("ucb.h1", rb)
	if err != nil {
		return err
	}
	w.hosts = []*testbed.Host{src, dst}
	w.startSink(dst)
	n.E.RunUntil(500 * time.Millisecond)
	for i := 0; i < dataCircuits; i++ {
		w.startSource(src, i)
	}
	for deadline := n.E.Now() + 5*time.Second; w.open < dataCircuits && w.openErr == nil && n.E.Now() < deadline; {
		n.E.RunUntil(n.E.Now() + 100*time.Millisecond)
	}
	if w.openErr != nil {
		return w.openErr
	}
	if w.open != dataCircuits {
		return fmt.Errorf("%d of %d circuits established", w.open, dataCircuits)
	}
	return nil
}

// startSink runs the receiving application: the Figure 5 server flow,
// with one worker per circuit that checks every frame's length, circuit
// and sequence number.
func (w *dataWorkload) startSink(h *testbed.Host) {
	h.Stack.Spawn("bench-sink", func(p *kern.Proc) {
		if err := h.Lib.ExportService(p, "sink", echoPort); err != nil {
			w.openErr = err
			return
		}
		kl, err := h.Lib.CreateReceiveConnection(p, echoPort)
		if err != nil {
			w.openErr = err
			return
		}
		for {
			req, err := h.Lib.AwaitServiceRequest(p, kl)
			if err != nil {
				return
			}
			vci, _, err := req.Accept(req.QoS)
			if err != nil {
				continue
			}
			cookie := req.Cookie
			h.Stack.Spawn("bench-sink-worker", func(wp *kern.Proc) {
				sock, err := h.Stack.PF.Socket(wp)
				if err != nil {
					return
				}
				if err := sock.Bind(vci, cookie); err != nil {
					return
				}
				for {
					frame, err := sock.Recv()
					if err != nil {
						return
					}
					w.receive(frame)
				}
			})
		}
	})
}

func (w *dataWorkload) receive(frame []byte) {
	if len(frame) != w.frameBytes {
		w.bad++
		return
	}
	c := binary.BigEndian.Uint32(frame)
	seq := binary.BigEndian.Uint64(frame[4:])
	if c >= dataCircuits || seq != w.next[c] {
		w.bad++
		if c < dataCircuits {
			w.next[c] = seq + 1
		}
		return
	}
	w.next[c]++
	w.delivered++
}

// startSource runs one sending application: the Figure 6 client flow,
// then a paced stream until the run stops.
func (w *dataWorkload) startSource(h *testbed.Host, i int) {
	h.Stack.Spawn("bench-source", func(p *kern.Proc) {
		conn, err := h.Lib.OpenConnection(p, "ucb.rt", "sink", notifyPort(i), "bench", "")
		if err != nil {
			w.openErr = err
			return
		}
		sock, err := h.Stack.PF.Socket(p)
		if err != nil {
			w.openErr = err
			return
		}
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			w.openErr = err
			return
		}
		// Frames sent before the far side has bound are legitimately
		// dropped; wait for its accept/bind sequence.
		p.SP.Sleep(500 * time.Millisecond)
		w.open++
		// Offset the circuits so their frames do not all leave in the
		// same instant.
		p.SP.Sleep(w.pace * time.Duration(i) / dataCircuits)
		payload := make([]byte, w.frameBytes)
		binary.BigEndian.PutUint32(payload, uint32(i))
		for !w.stop {
			binary.BigEndian.PutUint64(payload[4:], w.sent[i])
			if err := sock.Send(payload); err != nil {
				w.openErr = err
				return
			}
			w.sent[i]++
			p.SP.Sleep(w.pace)
		}
		// Closing tears the circuit down at once; let the frames still
		// in flight land first.
		p.SP.Sleep(500 * time.Millisecond)
		sock.Close()
	})
}

func (w *dataWorkload) mark() {
	w.simRig.mark()
	w.delivered0, w.virt0 = w.delivered, w.now()
}

func (w *dataWorkload) segment() (ops, failed int, err error) {
	d0, b0 := w.delivered, w.bad
	w.advance(w.segVirtual)
	if w.openErr != nil {
		return 0, 0, w.openErr
	}
	return int(w.delivered - d0 + w.bad - b0), int(w.bad - b0), nil
}

func (w *dataWorkload) report(r *result) {
	virt := (w.now() - w.virt0).Seconds()
	bits := float64(w.delivered-w.delivered0) * float64(w.frameBytes) * 8
	r.Layers["virt.goodput_mbps"] = bits / virt / 1e6
	w.reportLayers(r)
}

func (w *dataWorkload) finish() []string {
	w.stop = true
	w.runUntil(w.now() + 2*time.Second) // sources stop; frames in flight land
	var leaks []string
	var sent uint64
	for _, s := range w.sent {
		sent += s
	}
	if sent != w.delivered {
		leaks = append(leaks, fmt.Sprintf("sent %d frames, delivered %d intact", sent, w.delivered))
	}
	w.runUntil(w.now() + 60*time.Second) // teardown completes
	leaks = append(leaks, w.quiesce()...)
	if d := w.deltas()["fabric.cells.dropped"]; d > 0 {
		leaks = append(leaks, fmt.Sprintf("fabric dropped %.0f cells on a clean workload", d))
	}
	return leaks
}

func (w *dataWorkload) close() {
	if w.net != nil {
		w.net.E.Shutdown()
		w.net = nil
	}
}
