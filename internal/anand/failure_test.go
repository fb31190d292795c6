package anand

import (
	"testing"
	"time"

	"xunet/internal/atm"
	"xunet/internal/kern"
	"xunet/internal/memnet"
)

// Failure-path tests for the relay pair.

func TestServerForgetsDeadHost(t *testing.T) {
	e, _, host, srv, _ := rig(t)
	srv.OnKernel = func(memnet.IPAddr, kern.KMsg) {}
	e.RunUntil(500 * time.Millisecond)
	if !srv.Connected(host.M.IP.Addr) {
		t.Fatal("host never connected")
	}
	// The host's pseudo-device closes (machine going down): the anand
	// client closes its relay connection, and the server must forget
	// the host.
	host.M.Dev.Close()
	e.RunUntil(5 * time.Second)
	if srv.Connected(host.M.IP.Addr) {
		t.Fatal("server still lists the dead host")
	}
	// Disconnects for the dead host are dropped, not crashed on.
	srv.Disconnect(host.M.IP.Addr, 44)
	e.Shutdown()
}

func TestClientWithoutServerGivesUpQuietly(t *testing.T) {
	// A host whose router runs no anand server: StartClient's dial is
	// refused and the client exits without wedging the host.
	e, _, host, srv, _ := rig(t)
	h2ip := host.M.IP // reuse the rig's network: dial a port nobody owns
	c := StartClient(host, h2ip.Addr, 999)
	e.RunUntil(2 * time.Second)
	if c.Relayed != 0 {
		t.Fatalf("relayed %d with no server", c.Relayed)
	}
	if !srv.Connected(host.M.IP.Addr) {
		// the rig's own daemons still run: the host's relay is still up
		t.Fatal("the rig's relay connection died")
	}
	e.Shutdown()
}

func TestRelayPreservesMessageOrder(t *testing.T) {
	e, _, host, srv, _ := rig(t)
	var got []kern.KMsg
	srv.OnKernel = func(_ memnet.IPAddr, k kern.KMsg) { got = append(got, k) }
	// Paced below the device's 8-buffer capacity: an unpaced burst of
	// 30 would (correctly) lose 21 messages, the §10 failure mode.
	for i := 0; i < 30; i++ {
		i := i
		e.Schedule(time.Duration(100+i*10)*time.Millisecond, func() {
			host.M.Dev.PostUp(kern.KMsg{Kind: kern.MsgBind, VCI: atm.VCI(100 + i)})
		})
	}
	e.RunUntil(5 * time.Second)
	if len(got) != 30 {
		t.Fatalf("relayed %d of 30", len(got))
	}
	for i, k := range got {
		if int(k.VCI) != 100+i {
			t.Fatalf("message %d out of order: vci %d", i, k.VCI)
		}
	}
	e.Shutdown()
}
