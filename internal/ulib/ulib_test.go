package ulib_test

import (
	"errors"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
	"xunet/internal/ulib"
)

func TestExportServiceAgainstDeadSighost(t *testing.T) {
	// A host whose router runs no signaling entity: the RPC dial is
	// refused and surfaces as ErrSignaling.
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	host, err := n.AddHost("mh.h1", ra)
	if err != nil {
		t.Fatal(err)
	}
	// Point the library at an IP with no sighost (the host itself).
	lib := ulib.New(host.Stack.M.IP.Addr)
	var exportErr error
	host.Stack.Spawn("app", func(p *kern.Proc) {
		exportErr = lib.ExportService(p, "x", 6000)
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(exportErr, signaling.ErrSignaling) {
		t.Fatalf("err = %v", exportErr)
	}
	n.E.Shutdown()
}

func TestExportServiceValidation(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var badName, badPort error
	ra.Stack.Spawn("app", func(p *kern.Proc) {
		badName = ra.Lib.ExportService(p, "", 6000)
		badPort = ra.Lib.ExportService(p, "svc", 0)
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(badName, signaling.ErrProtocol) {
		t.Fatalf("empty name err = %v", badName)
	}
	if !errors.Is(badPort, signaling.ErrProtocol) {
		t.Fatalf("zero port err = %v", badPort)
	}
	n.E.Shutdown()
}

func TestOpenConnectionValidation(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var err1 error
	ra.Stack.Spawn("app", func(p *kern.Proc) {
		_, err1 = ra.Lib.OpenConnection(p, "", "svc", 7000, "", "")
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(err1, signaling.ErrProtocol) {
		t.Fatalf("empty dest err = %v", err1)
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}

func TestCancelUnknownCookie(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var err error
	ra.Stack.Spawn("app", func(p *kern.Proc) {
		err = ra.Lib.Client(p).CancelRequest(0xDEAD)
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(err, signaling.ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
	n.E.Shutdown()
}

func TestRejectDeliversReasonToClient(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	rb.Stack.Spawn("server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "refuser", 6000)
		kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
		for {
			req, err := rb.Lib.AwaitServiceRequest(p, kl)
			if err != nil {
				return
			}
			_ = req.Reject("quota exceeded")
		}
	})
	var openErr error
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		_, openErr = ra.Lib.OpenConnection(p, "ucb.rt", "refuser", 7000, "", "")
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(openErr, signaling.ErrFailed) {
		t.Fatalf("err = %v", openErr)
	}
	n.E.Shutdown()
}

func TestServiceRequestCarriesCommentAndQoS(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	var gotComment, gotQoS, gotService string
	rb.Stack.Spawn("server", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "inspect", 6000)
		kl, _ := rb.Lib.CreateReceiveConnection(p, 6000)
		req, err := rb.Lib.AwaitServiceRequest(p, kl)
		if err != nil {
			return
		}
		gotComment, gotQoS, gotService = req.Comment, req.QoS, req.Service
		_, _, _ = req.Accept(req.QoS)
	})
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		_, _ = ra.Lib.OpenConnection(p, "ucb.rt", "inspect", 7000, "this is a comment", "vbr:256")
	})
	n.E.RunUntil(10 * time.Second)
	if gotComment != "this is a comment" {
		t.Fatalf("comment = %q", gotComment)
	}
	if gotQoS != "vbr:256" {
		t.Fatalf("qos = %q", gotQoS)
	}
	if gotService != "inspect" {
		t.Fatalf("service = %q", gotService)
	}
	n.E.Shutdown()
}

func TestConcurrentOpensFromOneProcess(t *testing.T) {
	// One process opening several circuits on distinct notify ports.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{FDTableSize: kern.FixedFDTableSize})
	srv := testbed.StartEchoServer(rb, "multi", 6000)
	okCount := 0
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		for i := 0; i < 5; i++ {
			conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "multi", uint16(7000+i), "", "")
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				continue
			}
			sock, _ := ra.Stack.PF.Socket(p)
			if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
				t.Errorf("connect %d: %v", i, err)
				continue
			}
			okCount++
		}
	})
	n.E.RunUntil(30 * time.Second)
	if okCount != 5 {
		t.Fatalf("opened %d of 5", okCount)
	}
	if srv.Accepted != 5 {
		t.Fatalf("accepted = %d", srv.Accepted)
	}
	n.E.Shutdown()
}
