package ulib_test

import (
	"errors"
	"testing"
	"time"

	"xunet/internal/kern"
	"xunet/internal/signaling"
	"xunet/internal/testbed"
)

func TestUnexportStopsNewCalls(t *testing.T) {
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	srv := testbed.StartEchoServer(rb, "flaky", 6000)
	var firstErr, unexpErr, secondErr error
	ra.Stack.Spawn("client", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		// First call succeeds.
		r1 := testbed.OpenAndUseFrames(ra, p, "ucb.rt", "flaky", 7000, "", 0, 0, nil)
		firstErr = r1.Err
		p.SP.Sleep(100 * time.Millisecond)
		// The server withdraws the registration (it can do this from
		// any process — the service name is the handle).
		rb.Stack.Spawn("withdraw", func(w *kern.Proc) {
			unexpErr = rb.Lib.UnexportService(w, "flaky")
		})
		p.SP.Sleep(200 * time.Millisecond)
		_, secondErr = ra.Lib.OpenConnection(p, "ucb.rt", "flaky", 7001, "", "")
	})
	n.E.RunUntil(time.Minute)
	if firstErr != nil {
		t.Fatalf("first call: %v", firstErr)
	}
	if unexpErr != nil {
		t.Fatalf("unexport: %v", unexpErr)
	}
	if !errors.Is(secondErr, signaling.ErrFailed) {
		t.Fatalf("call after unexport err = %v", secondErr)
	}
	if srv.Accepted != 1 {
		t.Fatalf("accepted = %d", srv.Accepted)
	}
	n.E.Shutdown()
}

func TestOpenConnectionPortConflict(t *testing.T) {
	// Two concurrent opens on the same notify port: the second fails
	// cleanly with a port-in-use error instead of corrupting the first.
	n, ra, rb, _ := testbed.NewTestbed(testbed.Options{})
	testbed.StartEchoServer(rb, "echo", 6000)
	var err2 error
	ra.Stack.Spawn("c1", func(p *kern.Proc) {
		p.SP.Sleep(100 * time.Millisecond)
		pc, err := ra.Lib.OpenConnectionAsync(p, "ucb.rt", "echo", 7000, "", "")
		if err != nil {
			t.Error(err)
			return
		}
		defer pc.Cancel()
		p.SP.Sleep(2 * time.Second)
	})
	ra.Stack.Spawn("c2", func(p *kern.Proc) {
		p.SP.Sleep(200 * time.Millisecond) // while c1's listener holds port 7000
		_, err2 = ra.Lib.OpenConnection(p, "ucb.rt", "echo", 7000, "", "")
	})
	n.E.RunUntil(time.Minute)
	if err2 == nil {
		t.Fatal("port conflict not reported")
	}
	n.E.Shutdown()
}
