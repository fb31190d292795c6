// Command sigdemo demonstrates the real-TCP signaling path end to end:
// it registers an echo service with a running sighost daemon, opens a
// connection to it (Figure 4's CONNECT_REQ / REQ_ID / VCI_FOR_CONN
// exchange over actual sockets), prints the negotiated circuit, and
// tears everything down.
//
// With no -sighost flag it starts an in-process daemon on a loopback
// port first, so the demo is self-contained:
//
//	go run ./cmd/sigdemo
//
// With -server-sighost and -dest it drives a cross-host call through
// two peered daemons (see the -peer-net flags in cmd/sighost): the
// echo server registers at the destination daemon, the client opens
// from the origin, and the SETUP crosses the UDP carrier:
//
//	sigdemo -sighost 127.0.0.1:3177 -server-sighost 127.0.0.1:3178 -dest b.rt
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"xunet/internal/atm"
	"xunet/internal/signaling"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "sigdemo:", err)
	os.Exit(1)
}

func main() {
	target := flag.String("sighost", "", "address of a running sighost (empty: start one in-process)")
	srvTarget := flag.String("server-sighost", "", "sighost the echo server registers with (default: same as -sighost)")
	dest := flag.String("dest", "mh.rt", "ATM address the client opens the connection to")
	qosAsk := flag.String("qos", "cbr:1536", "QoS descriptor to request")
	qosOffer := flag.String("server-qos", "cbr:768", "QoS the demo server counter-offers")
	flag.Parse()

	addr := *target
	if addr == "" {
		h, err := signaling.StartReal("mh.rt", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		defer h.Close()
		addr = h.ListenAddr()
		fmt.Printf("started in-process sighost %q on %s\n", h.Addr, addr)
	}
	c := &signaling.RealClient{SighostAddr: addr}
	defer c.Close()
	srvAddr := *srvTarget
	if srvAddr == "" {
		srvAddr = addr
	}
	crossHost := srvAddr != addr
	sc := c
	if crossHost {
		sc = &signaling.RealClient{SighostAddr: srvAddr}
		defer sc.Close()
	}

	// --- server half (Figure 5 flow over real TCP) ---
	srvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	defer srvL.Close()
	srvPort := uint16(srvL.Addr().(*net.TCPAddr).Port)
	start := time.Now()
	if err := sc.ExportService("echo", srvPort); err != nil {
		fail(err)
	}
	fmt.Printf("EXPORT_SRV echo -> SERVICE_REGS in %v (paper: 17-20 ms on a 1993 SGI 4D/30)\n",
		time.Since(start).Round(time.Microsecond))

	type accepted struct {
		vci uint16
		qos string
		err error
	}
	srvCh := make(chan accepted, 1)
	go func() {
		req, err := signaling.AwaitServiceRequest(srvL)
		if err != nil {
			srvCh <- accepted{err: err}
			return
		}
		fmt.Printf("server: INCOMING_CONN qos=%q comment=%q cookie=%d\n", req.QoS, req.Comment, req.Cookie)
		vci, granted, err := req.Accept(*qosOffer)
		srvCh <- accepted{vci: uint16(vci), qos: granted, err: err}
	}()

	// --- client half (Figure 6 flow) ---
	cliL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	defer cliL.Close()
	cliPort := uint16(cliL.Addr().(*net.TCPAddr).Port)
	start = time.Now()
	conn, err := c.OpenConnection(atm.Addr(*dest), "echo", cliL, cliPort, "sigdemo call", *qosAsk)
	if err != nil {
		fail(err)
	}
	setup := time.Since(start).Round(time.Microsecond)
	sr := <-srvCh
	if sr.err != nil {
		fail(sr.err)
	}
	fmt.Printf("client: VCI_FOR_CONN vci=%d qos=%q cookie=%d in %v\n", conn.VCI, conn.QoS, conn.Cookie, setup)
	fmt.Printf("server: VCI_FOR_CONN vci=%d qos=%q\n", sr.vci, sr.qos)
	fmt.Printf("negotiation: asked %q, server offered %q, granted %q\n", *qosAsk, *qosOffer, conn.QoS)
	switch {
	case crossHost:
		// Each daemon grants a VCI from its own pool; the numbers need
		// not match, only exist on both sides.
		if conn.VCI == 0 || sr.vci == 0 {
			fmt.Println("zero VCI granted!")
			os.Exit(1)
		}
		fmt.Println("cross-host call established over the peer carrier")
	case uint16(conn.VCI) == sr.vci:
		fmt.Println("both endpoints agree on the circuit — call established")
	default:
		fmt.Println("VCI mismatch!")
		os.Exit(1)
	}
}
