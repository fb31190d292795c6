package signaling_test

// Wall-clock call-setup throughput across two real daemons on the
// loopback — TCP RPC from the apps, the batched UDP carrier between the
// sighosts, real notify dials — the end-to-end "native-mode call" cost
// the paper measures in §6. For measuring while you work; `real_setup`
// in `go run ./bench` carries the number that is tracked.

import (
	"net"
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/signaling"
)

func benchSetups(b *testing.B, unbatched bool) {
	a, hostB := startPeerPair(b,
		signaling.PeerNetConfig{Unbatched: unbatched},
		signaling.PeerNetConfig{Unbatched: unbatched})

	srvC := &signaling.RealClient{SighostAddr: hostB.ListenAddr()}
	srvL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srvL.Close()
	if err := srvC.ExportService("echo", uint16(srvL.Addr().(*net.TCPAddr).Port)); err != nil {
		b.Fatal(err)
	}
	// Server app: accept every incoming call until the listener closes,
	// reporting each grant so the bench loop can bind and close it.
	type srvGrant struct {
		vci    atm.VCI
		cookie uint16
	}
	grants := make(chan srvGrant, 1)
	go func() {
		for {
			req, err := signaling.AwaitServiceRequest(srvL)
			if err != nil {
				return
			}
			req.ReplyTimeout = 30 * time.Second
			vci, _, err := req.Accept("")
			if err != nil {
				return
			}
			grants <- srvGrant{vci: vci, cookie: req.Cookie}
		}
	}()

	cliC := &signaling.RealClient{SighostAddr: a.ListenAddr(), EstablishTimeout: 30 * time.Second}
	cliL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer cliL.Close()
	cliPort := uint16(cliL.Addr().(*net.TCPAddr).Port)
	ip := memnet.IP4(127, 0, 0, 1)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := cliC.OpenConnection("b.rt", "echo", cliL, cliPort, "", "cbr:100")
		if err != nil {
			b.Fatal(err)
		}
		g := <-grants
		// The kernel half of the lifecycle (there is no ATM driver on a
		// bench host): connect and bind authenticate the granted VCIs,
		// close tears the call down end to end — the release crosses
		// the carrier and recycles both daemons' VCIs (pools are 32
		// deep, so teardown must be part of the measured cycle).
		a.Do(func() {
			a.SH.HandleKernel(ip, kern.KMsg{Kind: kern.MsgConnect, VCI: conn.VCI, Cookie: conn.Cookie})
		})
		hostB.Do(func() {
			hostB.SH.HandleKernel(ip, kern.KMsg{Kind: kern.MsgBind, VCI: g.vci, Cookie: g.cookie})
		})
		a.Do(func() {
			a.SH.HandleKernel(ip, kern.KMsg{Kind: kern.MsgClose, VCI: conn.VCI})
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "setups/s")
}

func BenchmarkRealSetups(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		a, _ := startPeerPair(b, signaling.PeerNetConfig{}, signaling.PeerNetConfig{})
		if !a.PeerNet().Batched() {
			b.Skip("no sendmmsg/recvmmsg on this platform")
		}
		benchSetups(b, false)
	})
	b.Run("fallback", func(b *testing.B) {
		benchSetups(b, true)
	})
}
