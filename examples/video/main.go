// Video: continuous-media streams over the nationwide Xunet 2 map —
// the multimedia workload the paper's introduction motivates ("quite a
// bit of the traffic over Xunet II is generated from IP-multicast based
// multimedia applications") and the QoS machinery of references [17]
// and [18].
//
// A video server at Murray Hill serves CBR streams. Clients at Berkeley
// keep requesting 10 Mb/s streams until the DS3 hop saturates and
// admission control starts rejecting calls. A best-effort bulk transfer
// shares the same trunk; the per-class weighted-round-robin scheduler
// keeps the admitted CBR streams' cell loss at zero while the
// best-effort class absorbs the congestion.
//
//	go run ./examples/video
package main

import (
	"fmt"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
	"xunet/internal/xswitch"
)

const streamRate = "cbr:10000" // 10 Mb/s per video stream

func main() {
	fmt.Println("=== CBR video with admission control over Xunet 2 ===")
	n, routers, err := testbed.NewXunet(testbed.Options{})
	if err != nil {
		panic(err)
	}
	mh := routers[xswitch.MurrayHill]
	ucb := routers[xswitch.Berkeley]

	// Video server at Murray Hill: accepts stream requests and pumps
	// frames for two seconds each.
	mh.Stack.Spawn("video-server", func(p *kern.Proc) {
		lib := mh.Lib
		if err := lib.ExportService(p, "video", 6000); err != nil {
			return
		}
		kl, _ := lib.CreateReceiveConnection(p, 6000)
		for {
			req, err := lib.AwaitServiceRequest(p, kl)
			if err != nil {
				return
			}
			// The client asked for a stream *from* us: accept the
			// (request) circuit at best effort and call back with CBR.
			vci, _, err := req.Accept("besteffort:0")
			if err != nil {
				continue
			}
			cookie := req.Cookie
			comment := req.Comment // carries the client's return service name
			mh.Stack.Spawn("video-pump", func(w *kern.Proc) {
				ctrl, _ := mh.Stack.PF.Socket(w)
				if err := ctrl.Bind(vci, cookie); err != nil {
					return
				}
				ret, err := lib.OpenConnection(w, "ucb.rt", comment, nextPort(), "video stream", streamRate)
				if err != nil {
					fmt.Printf("server: stream rejected: %v\n", err)
					ctrl.Close()
					return
				}
				fmt.Printf("server: streaming at %q on %v\n", ret.QoS, ret.VCI)
				out, _ := mh.Stack.PF.Socket(w)
				if err := out.Connect(ret.VCI, ret.Cookie); err != nil {
					return
				}
				w.SP.Sleep(150 * time.Millisecond)
				// 2 s of 10 Mb/s video in 10 kB frames (209 cells each).
				for i := 0; i < 250; i++ {
					_ = out.Send(make([]byte, 10000))
					w.SP.Sleep(8 * time.Millisecond)
				}
				w.SP.Sleep(200 * time.Millisecond)
				out.Close()
				ctrl.Close()
			})
		}
	})

	// Best-effort cross-traffic on the same MH–Illinois–Berkeley path.
	var crossSent int
	mh.Stack.Spawn("bulk-server", func(p *kern.Proc) {
		lib := mh.Lib
		_ = lib.ExportService(p, "bulk", 6001)
		kl, _ := lib.CreateReceiveConnection(p, 6001)
		req, err := lib.AwaitServiceRequest(p, kl)
		if err != nil {
			return
		}
		vci, _, err := req.Accept("besteffort:0")
		if err != nil {
			return
		}
		sock, _ := mh.Stack.PF.Socket(p)
		_ = sock.Bind(vci, req.Cookie)
		for {
			if _, err := sock.Recv(); err != nil {
				return
			}
		}
	})
	ucb.Stack.Spawn("bulk-client", func(p *kern.Proc) {
		p.SP.Sleep(500 * time.Millisecond)
		conn, err := ucb.Lib.OpenConnection(p, "mh.rt", "bulk", 7500, "", "")
		if err != nil {
			return
		}
		sock, _ := ucb.Stack.PF.Socket(p)
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			return
		}
		p.SP.Sleep(150 * time.Millisecond)
		// Offer ~40 Mb/s of best-effort load for 3 seconds: it must
		// yield to the CBR class on the 45 Mb/s DS3.
		for i := 0; i < 600; i++ {
			_ = sock.Send(make([]byte, 25000))
			crossSent++
			p.SP.Sleep(5 * time.Millisecond)
		}
		p.SP.Sleep(300 * time.Millisecond)
		sock.Close()
	})

	// Berkeley clients request streams until admission says no.
	for i := 0; i < 6; i++ {
		i := i
		ucb.Stack.Spawn("viewer", func(p *kern.Proc) {
			p.SP.Sleep(time.Duration(i)*400*time.Millisecond + 600*time.Millisecond)
			lib := ucb.Lib
			retSvc := fmt.Sprintf("view-%d", i)
			if err := lib.ExportService(p, retSvc, uint16(6100+i)); err != nil {
				return
			}
			retL, _ := lib.CreateReceiveConnection(p, uint16(6100+i))
			// Ask the server to start a stream, naming our return
			// service in the comment.
			conn, err := lib.OpenConnection(p, "mh.rt", "video", uint16(7000+i), retSvc, "besteffort:0")
			if err != nil {
				fmt.Printf("viewer %d: request failed: %v\n", i, err)
				return
			}
			ctrl, _ := ucb.Stack.PF.Socket(p)
			_ = ctrl.Connect(conn.VCI, conn.Cookie)
			// Accept the server's CBR call-back (or learn it was
			// rejected when nothing arrives).
			req, err := lib.AwaitServiceRequest(p, retL)
			if err != nil {
				return
			}
			vci, qos, err := req.Accept(req.QoS)
			if err != nil {
				return
			}
			in, _ := ucb.Stack.PF.Socket(p)
			if err := in.Bind(vci, req.Cookie); err != nil {
				return
			}
			frames := 0
			for {
				if _, err := in.Recv(); err != nil {
					break
				}
				frames++
			}
			fmt.Printf("viewer %d: stream done, %d/250 frames at %q\n", i, frames, qos)
		})
	}

	n.E.RunUntil(90 * time.Second)
	sent, dropped := n.Fabric.TrunkStats()
	fmt.Printf("\nfabric: %d cells switched, %d dropped (any drops land on the best-effort class)\n", sent, dropped)
	snap := mh.Sig.SH.Obs.Snapshot()
	fmt.Printf("admission: MH sighost established %d calls, failed %d (CBR oversubscription)\n",
		snap.Count("sighost.calls.established"), snap.Count("sighost.calls.failed"))
	fmt.Printf("best-effort bulk frames offered: %d\n", crossSent)
	n.E.Shutdown()
}

var portCounter uint16 = 7600

func nextPort() uint16 {
	portCounter++
	return portCounter
}
