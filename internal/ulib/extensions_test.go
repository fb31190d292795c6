package ulib_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

// Tests for the paper-flagged extensions: management queries (§5.1) and
// the non-blocking open_connection (§8).

func TestManagementQueries(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	var services, calls, stats, lists string
	ra.Stack.Spawn("operator", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		conn, err := ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		sock, _ := ra.Stack.PF.Socket(p)
		_ = sock.Connect(conn.VCI, conn.Cookie)
		// Query the *remote* entity's service list via its own lib and
		// this entity's call table.
		calls, err = ra.Lib.Client(p).Query(signaling.MgmtCalls, 0, 0)
		if err != nil {
			t.Error(err)
		}
		stats, _ = ra.Lib.Client(p).Query(signaling.MgmtStats, 0, 0)
		lists, _ = ra.Lib.Client(p).Query(signaling.MgmtLists, 0, 0)
		sock.Close()
	})
	rb.Stack.Spawn("operator-b", func(p *kern.Proc) {
		p.SP.Sleep(200 * time.Millisecond)
		var err error
		services, err = rb.Lib.Client(p).Query(signaling.MgmtServices, 0, 0)
		if err != nil {
			t.Error(err)
		}
	})
	n.E.RunUntil(time.Minute)
	if !strings.Contains(services, "echo ->") {
		t.Errorf("services view = %q", services)
	}
	if !strings.Contains(calls, "svc=echo") {
		t.Errorf("calls view = %q", calls)
	}
	if !strings.Contains(stats, "sighost.calls.established 1\n") {
		t.Errorf("stats view = %q", stats)
	}
	if !strings.Contains(lists, "VCI_mapping=") {
		t.Errorf("lists view = %q", lists)
	}
	n.E.Shutdown()
}

func TestManagementUnknownQuery(t *testing.T) {
	n, ra, _, _ := testbed.NewTestbed(testbed.Options{})
	var err error
	ra.Stack.Spawn("operator", func(p *kern.Proc) {
		_, err = ra.Lib.Client(p).Query("bogus", 0, 0)
	})
	n.E.RunUntil(10 * time.Second)
	if !errors.Is(err, signaling.ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
	n.E.Shutdown()
}

func TestOpenConnectionAsync(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "echo", 6000)
	var overlapped bool
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		pc, err := ra.Lib.OpenConnectionAsync(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		// The request is in flight; the client is free to work. The
		// paper: "Since connection establishment can be made
		// non-blocking, we do not think that [330 ms] poses a serious
		// problem."
		workStart := p.SP.Now()
		p.SP.Sleep(200 * time.Millisecond) // useful work during setup
		overlapped = p.SP.Now()-workStart == 200*time.Millisecond
		conn, err := pc.Await()
		if err != nil {
			t.Error(err)
			return
		}
		sock, _ := ra.Stack.PF.Socket(p)
		if err := sock.Connect(conn.VCI, conn.Cookie); err != nil {
			t.Error(err)
			return
		}
		p.SP.Sleep(100 * time.Millisecond)
		_ = sock.Send([]byte("async"))
		p.SP.Sleep(100 * time.Millisecond)
		sock.Close()
	})
	n.E.RunUntil(time.Minute)
	if !overlapped {
		t.Fatal("work did not overlap establishment")
	}
	if srv.Received != 1 {
		t.Fatalf("received = %d", srv.Received)
	}
	n.E.Shutdown()
}

func TestPendingConnectionCancel(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	// A server that never answers, so the request stays pending.
	rb.Stack.Spawn("sleepy", func(p *kern.Proc) {
		_ = rb.Lib.ExportService(p, "sleepy", 6000)
		_, _ = rb.Lib.CreateReceiveConnection(p, 6000)
		p.SP.Park()
	})
	var cancelErr error
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		pc, err := ra.Lib.OpenConnectionAsync(p, "ucb.rt", "sleepy", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		p.SP.Sleep(100 * time.Millisecond)
		cancelErr = pc.Cancel()
	})
	n.E.RunUntil(time.Minute)
	if cancelErr != nil {
		t.Fatalf("cancel: %v", cancelErr)
	}
	if ra.Sig.SH.Obs.Snapshot().Count("sighost.calls.canceled") != 1 {
		t.Fatalf("canceled = %d", ra.Sig.SH.Obs.Snapshot().Count("sighost.calls.canceled"))
	}
	if leaks := n.Audit(); leaks != nil {
		t.Fatal(leaks)
	}
	n.E.Shutdown()
}
