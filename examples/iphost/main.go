// IPHost: the "ATM Everywhere" migration path of §5.4 and §7.4 — hosts
// with no ATM hardware reach services on the Xunet WAN by sending
// unsegmented AAL frames encapsulated in IP packets to their router.
//
// A client on an IP-only workstation behind mh.rt calls a server on an
// IP-only workstation behind ucb.rt. The example shows every piece of
// the machinery working:
//
//   - the anand client/server pair relaying the hosts' kernel
//     indications to the routers' signaling entities,
//
//   - the VCI_BIND that points the remote router's per-VCI handler at
//     the IPPROTO_ATM re-encapsulation routine with the host's address,
//
//   - sequence-number detection of reordering injected on the client's
//     FDDI segment, and
//
//   - the VCI_SHUT cleanup when the circuit closes.
//
//     go run ./examples/iphost
package main

import (
	"fmt"
	"time"

	"xunet/internal/faults"
	"xunet/internal/kern"
	"xunet/internal/testbed"
)

func main() {
	fmt.Println("=== AAL frames over IP: hosts without ATM hardware ===")
	n, ra, rb, err := testbed.NewTestbed(testbed.Options{})
	if err != nil {
		panic(err)
	}
	hostA, err := n.AddHost("mh.pc1", ra)
	if err != nil {
		panic(err)
	}
	hostB, err := n.AddHost("ucb.pc7", rb)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hosts: %s (%v) behind mh.rt, %s (%v) behind ucb.rt\n",
		hostA.Stack.Addr, hostA.Stack.M.IP.Addr, hostB.Stack.Addr, hostB.Stack.M.IP.Addr)

	// Inject reordering on the client's FDDI segment so the
	// encapsulation header's sequence numbers have something to detect:
	// a fault plane on the client's node holds a quarter of its packets
	// back by up to 16 ms.
	hostA.Stack.M.IP.SetFaults(faults.NewPlane(faults.Config{PktDelayProb: 0.25, PktDelayMax: 16 * time.Millisecond}))

	// Server on the IP-only host behind ucb.rt.
	hostB.Stack.Spawn("server", func(p *kern.Proc) {
		lib := hostB.Lib
		if err := lib.ExportService(p, "sensor-log", 6000); err != nil {
			fmt.Println("server: export:", err)
			return
		}
		kl, _ := lib.CreateReceiveConnection(p, 6000)
		req, err := lib.AwaitServiceRequest(p, kl)
		if err != nil {
			return
		}
		vci, _, err := req.Accept(req.QoS)
		if err != nil {
			return
		}
		fmt.Printf("server: bound %v on an IP-only host (VCI_BIND installed at ucb.rt)\n", vci)
		sock, _ := hostB.Stack.PF.Socket(p)
		if err := sock.Bind(vci, req.Cookie); err != nil {
			return
		}
		count := 0
		for {
			msg, err := sock.Recv()
			if err != nil {
				fmt.Printf("server: circuit closed after %d readings\n", count)
				return
			}
			count++
			if count <= 3 || count%20 == 0 {
				fmt.Printf("server: reading %d: %q\n", count, msg)
			}
		}
	})

	// Client on the IP-only host behind mh.rt.
	hostA.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(300 * time.Millisecond)
		lib := hostA.Lib
		conn, err := lib.OpenConnection(p, "ucb.rt", "sensor-log", 7000, "from an IP host", "vbr:256")
		if err != nil {
			fmt.Println("client: open:", err)
			return
		}
		fmt.Printf("client: circuit %v established from an IP-only host (qos %q)\n", conn.VCI, conn.QoS)
		sock, _ := hostA.Stack.PF.Socket(p)
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			return
		}
		p.SP.Sleep(150 * time.Millisecond)
		for i := 1; i <= 60; i++ {
			_ = sock.Send([]byte(fmt.Sprintf("temp=%d.%d", 20+i%5, i%10)))
			p.SP.Sleep(2 * time.Millisecond)
		}
		p.SP.Sleep(300 * time.Millisecond)
		sock.Close()
	})

	n.E.RunUntil(30 * time.Second)

	fmt.Println()
	fmt.Println("--- encapsulation path statistics ---")
	fmt.Printf("hostA  encapsulated %d frames (Orc output -> IPPROTO_ATM -> IP)\n", hostA.Stack.ATM.Encapsulated)
	fmt.Printf("mh.rt  switched %d encapsulated packets into the ATM fabric (+39 instr each)\n", ra.Stack.ATM.Switched)
	fmt.Printf("mh.rt  detected %d out-of-order packets by sequence number\n", ra.Stack.ATM.OutOfOrder)
	fmt.Printf("ucb.rt re-encapsulated %d frames toward %s\n", rb.Stack.ATM.ReEncapsulated, hostB.Stack.Addr)
	fmt.Printf("hostB  decapsulated %d frames\n", hostB.Stack.ATM.Decapsulated)
	fmt.Printf("anand: %d relayed up at mh.rt, %d VCI_BINDs / %d VCI_SHUTs at ucb.rt\n",
		ra.Sig.Anand.Relayed, rb.Sig.Anand.Binds, rb.Sig.Anand.Shuts)
	sent, dropped := n.Fabric.TrunkStats()
	fmt.Printf("fabric: %d cells, %d dropped\n", sent, dropped)
	if rb.Stack.ATM.Bound(0) {
		fmt.Println("unexpected lingering binding")
	}
	n.E.Shutdown()
}
