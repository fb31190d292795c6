package signaling

import (
	"io"
	"net"
	"testing"
	"time"

	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
)

// notifyApp is an application's notify listener seen from inside the
// package: it hands every accepted connection to the test.
func notifyApp(t *testing.T) (port uint16, accepted <-chan net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	ch := make(chan net.Conn, 2*maxIdleNotify)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			ch <- conn
		}
	}()
	return uint16(l.Addr().(*net.TCPAddr).Port), ch
}

// dialInActor runs Env.Dial in actor context and waits for its callback.
func dialInActor(t *testing.T, h *RealHost, port uint16) *realConn {
	t.Helper()
	got := make(chan Conn, 1)
	h.Do(func() {
		h.SH.env.Dial(memnet.IP4(127, 0, 0, 1), port, func(c Conn, err error) {
			if err != nil {
				t.Error(err)
			}
			got <- c
		})
	})
	select {
	case c := <-got:
		return c.(*realConn)
	case <-time.After(10 * time.Second):
		t.Fatal("dial callback never fired")
		return nil
	}
}

// TestNotifyIdleSetIsCapped: connections whose exchange completes while
// the idle set is full are closed, as every one was before reuse, and
// the set hands back exactly what it holds.
func TestNotifyIdleSetIsCapped(t *testing.T) {
	h, err := StartReal("pool.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer h.Close()
	port, accepted := notifyApp(t)
	const over = 3
	var conns []*realConn
	for i := 0; i < maxIdleNotify+over; i++ {
		conns = append(conns, dialInActor(t, h, port))
	}
	h.Do(func() {
		for _, c := range conns {
			c.Send(sigmsg.Msg{Kind: sigmsg.KindConnFailed, Reason: "test"})
			c.Close()
		}
	})
	if idle := h.m.idleConns.Value(); idle != maxIdleNotify {
		t.Fatalf("idle set holds %d connections, want its cap %d", idle, maxIdleNotify)
	}
	// The application sees the overflow closed after its frame.
	closed := 0
	for i := 0; i < maxIdleNotify+over; i++ {
		conn := <-accepted
		defer conn.Close()
		if _, err := ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		if _, err := conn.Read(make([]byte, 1)); err == io.EOF {
			closed++
		}
	}
	if closed != over {
		t.Errorf("application saw %d connections closed, want %d", closed, over)
	}
	dialed := h.m.dialed.Value()
	for i := 0; i < maxIdleNotify; i++ {
		dialInActor(t, h, port)
	}
	if d := h.m.dialed.Value() - dialed; d != 0 || h.m.idleConns.Value() != 0 {
		t.Errorf("draining the idle set dialed %d connections and left %d idle, want 0 and 0", d, h.m.idleConns.Value())
	}
}

// TestSendOnDeadIdleConnRedials: the application hung up on a parked
// connection, and the pump noticed only after the connection had been
// handed out. Nothing has been written on it, so the exchange's first
// frame goes out on a new connection — a one-shot VCI_FOR_CONN
// included, though its exchange is over by the time the dial ends.
func TestSendOnDeadIdleConnRedials(t *testing.T) {
	h, err := StartReal("pool.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer h.Close()
	port, accepted := notifyApp(t)
	c := dialInActor(t, h, port)
	h.Do(func() {
		c.Send(sigmsg.Msg{Kind: sigmsg.KindConnFailed})
		c.Close()
	})
	if c2 := dialInActor(t, h, port); c2 != c { // handed out again, nothing sent yet
		t.Fatal("idle connection was not reused")
	}
	(<-accepted).Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var dead bool
		h.Do(func() { dead = c.dead })
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pump never noticed the hang-up")
		}
	}
	want := sigmsg.Msg{Kind: sigmsg.KindVCIForConn, Cookie: 7, VCI: 42, QoS: "cbr:1"}
	h.Do(func() {
		c.Send(want)
		c.Close()
	})
	conn := <-accepted
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	raw, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sigmsg.Decode(raw); err != nil || got != want {
		t.Fatalf("new connection carried %v, %v; want %v", got, err, want)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after the frame: %v, want EOF (the exchange was over)", err)
	}
	if idle := h.m.idleConns.Value(); idle != 0 {
		t.Errorf("idle set holds %d connections, want 0", idle)
	}
}

// TestDoNeverRunsAfterReturn: a Do racing Close may find its function
// unrun, but never still running, so the caller may read what the
// function writes (under -race, a late run is a data race on n).
func TestDoNeverRunsAfterReturn(t *testing.T) {
	for i := 0; i < 200; i++ {
		h, err := StartReal("pool.rt", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback TCP unavailable: %v", err)
		}
		for j := 0; j < 50; j++ { // a backlog, so Close lands mid-queue
			h.put(input{fn: func() {}})
		}
		go h.Close()
		n := 0
		h.Do(func() { n = 1 })
		_ = n
		h.Close()
	}
}
