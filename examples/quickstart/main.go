// Quickstart: the paper's echo client and server (Figures 5 and 6)
// running on the reproduced §9 testbed — two routers across a three hop
// (two switch) ATM path.
//
// The server side follows Figure 5 exactly: export_service,
// create_receive_connection, await_service_request, accept_connection,
// then a PF_XUNET socket bound to the granted VCI. The client side
// follows Figure 6: open_connection, then a PF_XUNET socket connected
// to the VCI. Both message traces (the paper's Figures 3 and 4) are
// printed as the signaling entities process them.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"xunet/internal/kern"
	"xunet/internal/testbed"
)

func main() {
	fmt.Println("=== Xunet native-mode ATM quickstart ===")
	fmt.Println("building the paper's testbed: mh.rt <-> sw-A <-> sw-B <-> ucb.rt")
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		panic(err)
	}
	ra.Sig.SH.Trace = func(l string) { fmt.Printf("  [mh.rt  sighost] %s\n", l) }
	rb.Sig.SH.Trace = func(l string) { fmt.Printf("  [ucb.rt sighost] %s\n", l) }

	// ----- Server (Figure 5) -----
	rb.Stack.Spawn("echo-server", func(p *kern.Proc) {
		lib := rb.Lib
		if err := lib.ExportService(p, "echo", 6000); err != nil {
			fmt.Println("server: export:", err)
			return
		}
		fmt.Printf("server: service %q registered at t=%v\n", "echo", p.SP.Now())
		kl, err := lib.CreateReceiveConnection(p, 6000)
		if err != nil {
			fmt.Println("server: listen:", err)
			return
		}
		req, err := lib.AwaitServiceRequest(p, kl)
		if err != nil {
			fmt.Println("server: await:", err)
			return
		}
		fmt.Printf("server: incoming call, comment=%q qos=%q cookie=%d\n", req.Comment, req.QoS, req.Cookie)
		vci, granted, err := req.Accept(req.QoS)
		if err != nil {
			fmt.Println("server: accept:", err)
			return
		}
		fmt.Printf("server: accepted on %v (qos %q) at t=%v\n", vci, granted, p.SP.Now())

		sock, err := rb.Stack.PF.Socket(p)
		if err != nil {
			fmt.Println("server: socket:", err)
			return
		}
		if err := sock.Bind(vci, req.Cookie); err != nil {
			fmt.Println("server: bind:", err)
			return
		}
		for {
			msg, err := sock.Recv()
			if err != nil {
				fmt.Printf("server: circuit closed (%v) at t=%v\n", err, p.SP.Now())
				return
			}
			fmt.Printf("server: received %q at t=%v\n", msg, p.SP.Now())
		}
	})

	// ----- Client (Figure 6) -----
	ra.Stack.Spawn("echo-client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond) // let the server register
		lib := ra.Lib
		start := p.SP.Now()
		conn, err := lib.OpenConnection(p, "ucb.rt", "echo", 7000, "this is a comment", "vbr:128")
		if err != nil {
			fmt.Println("client: open:", err)
			return
		}
		fmt.Printf("client: connection on %v (qos %q) after %v — the paper measured ≈330 ms\n",
			conn.VCI, conn.QoS, p.SP.Now()-start)

		sock, err := ra.Stack.PF.Socket(p)
		if err != nil {
			fmt.Println("client: socket:", err)
			return
		}
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			fmt.Println("client: connect:", err)
			return
		}
		p.SP.Sleep(100 * time.Millisecond) // let the server bind
		for i := 1; i <= 3; i++ {
			if err := sock.Send([]byte(fmt.Sprintf("hello over ATM #%d", i))); err != nil {
				fmt.Println("client: send:", err)
				return
			}
		}
		p.SP.Sleep(200 * time.Millisecond) // drain in-flight cells
		sock.Close()
		fmt.Printf("client: done at t=%v\n", p.SP.Now())
	})

	n.E.RunUntil(10 * time.Second)
	sent, dropped := n.Fabric.TrunkStats()
	fmt.Printf("\nfabric: %d cells switched, %d dropped\n", sent, dropped)
	for _, r := range []*testbed.Router{ra, rb} {
		snap := r.Sig.SH.Obs.Snapshot()
		fmt.Printf("%-6s sighost:", r.Stack.Addr)
		for _, name := range []string{"calls.established", "calls.torn", "calls.failed", "msgs.app", "msgs.peer", "msgs.kernel"} {
			fmt.Printf(" %s=%d", name, snap.Count("sighost."+name))
		}
		fmt.Println()
	}
	if leaks := n.Audit(); leaks != nil {
		fmt.Println("LEAK:", leaks)
	} else {
		fmt.Println("all signaling state drained cleanly")
	}
	n.E.Shutdown()
}
