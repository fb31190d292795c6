package signaling

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xunet/internal/memnet"
	"xunet/internal/sigmsg"
)

// FuzzNotifyFraming feeds arbitrary bytes to the length-prefixed TCP
// framing + decode loop every notify/RPC connection runs. Torn frames,
// oversized length prefixes and corrupt payloads must stop the loop
// cleanly — never panic, never hang — exactly like FuzzJournalReplay
// guards the persisted-journal parser.
func FuzzNotifyFraming(f *testing.F) {
	valid := appendFrame(nil, &sigmsg.Msg{
		Kind: sigmsg.KindConnectReq, Dest: "mh.rt", Service: "echo",
		NotifyPort: 9, QoS: "cbr:100", Comment: "fuzz seed"})
	f.Add(append([]byte(nil), valid...))
	// Two back-to-back frames: the loop must consume both.
	two := append(append([]byte(nil), valid...),
		appendFrame(nil, &sigmsg.Msg{Kind: sigmsg.KindPeerAck, Seq: 7, Epoch: 1})...)
	f.Add(two)
	f.Add(append([]byte(nil), valid[:len(valid)-3]...)) // torn tail
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})      // length prefix over the 1 MiB cap
	corrupt := append([]byte(nil), valid...)
	corrupt[7] ^= 0xA5
	f.Add(corrupt)
	f.Add([]byte{0, 0, 0, 0}) // zero-length frame

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var dec sigmsg.Decoder
		var m sigmsg.Msg
		for {
			raw, err := ReadFrame(r)
			if err != nil {
				return // torn/oversized/exhausted: clean stop
			}
			_ = dec.DecodeInto(&m, raw) // corrupt payloads may error, never panic
		}
	})
}

// TestAppendFrameRoundTrip: the single-write framing helper produces
// exactly what ReadFrame+DecodeInto consume, including several frames
// packed back to back in one buffer.
func TestAppendFrameRoundTrip(t *testing.T) {
	msgs := []sigmsg.Msg{
		{Kind: sigmsg.KindConnectReq, Dest: "b.rt", Service: "echo", NotifyPort: 7001, QoS: "cbr:1000", Comment: "round trip"},
		{Kind: sigmsg.KindPeerAck, Seq: 99, Epoch: 3},
		{Kind: sigmsg.KindSetup, CallID: 12, Src: "a.rt", Dest: "b.rt", Service: "echo", QoS: "vbr:64"},
	}
	var buf []byte
	for i := range msgs {
		buf = appendFrame(buf, &msgs[i])
	}
	r := bytes.NewReader(buf)
	var dec sigmsg.Decoder
	for i := range msgs {
		raw, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got sigmsg.Msg
		if err := dec.DecodeInto(&got, raw); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != msgs[i] {
			t.Fatalf("frame %d round-tripped to %+v, want %+v", i, got, msgs[i])
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes after all frames", r.Len())
	}
}

// TestDialBackoffSchedule pins the notify-dial retry behavior: failures
// retry with doubling backoff, the error names the attempt count, and
// the total wait covers the full schedule (5+10+20ms for 4 attempts).
func TestDialBackoffSchedule(t *testing.T) {
	h, err := StartReal("dial.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer h.Close()
	h.DialTimeout = 2 * time.Second
	h.DialAttempts = 4
	h.DialBackoff = 5 * time.Millisecond

	// A port that refuses immediately: bind one, note it, close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := uint16(l.Addr().(*net.TCPAddr).Port)
	l.Close()

	env := h.SH.env.(*realEnv)
	errCh := make(chan error, 1)
	start := time.Now()
	env.Dial(memnet.IP4(127, 0, 0, 1), port, func(c Conn, err error) { errCh <- err })
	select {
	case err = <-errCh:
	case <-time.After(10 * time.Second):
		t.Fatal("dial callback never fired")
	}
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("err = %v, want attempt count in message", err)
	}
	if min := 35 * time.Millisecond; elapsed < min {
		t.Fatalf("4 attempts finished in %v; backoff schedule (5+10+20ms) requires ≥ %v", elapsed, min)
	}
}

// countConn counts the reads that reach the connection and reports its
// first Close.
type countConn struct {
	net.Conn
	reads  atomic.Int32
	once   sync.Once
	closed chan struct{}
}

func (c *countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestFrameWrittenWholeIsOneRead: the RPC front reads a frame its
// application wrote in one Write with one read of the connection, not
// one for the length prefix and one for the body. The bodies are ones
// the decoder rejects, so the pump hands the actor nothing; net.Pipe
// matches each read to one write.
func TestFrameWrittenWholeIsOneRead(t *testing.T) {
	h, err := StartReal("reads.rt", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer h.Close()
	app, daemon := net.Pipe()
	conn := &countConn{Conn: daemon, closed: make(chan struct{})}
	h.serveConn(conn)
	const frames = 20
	for i := range frames {
		body := bytes.Repeat([]byte{0xff}, 10*i+1) // no such kind
		if _, err := app.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
			t.Fatal(err)
		}
	}
	app.Close()
	<-conn.closed
	if got := conn.reads.Load(); got != frames+1 { // the last read sees EOF
		t.Errorf("%d frames took %d reads, want %d", frames, got, frames+1)
	}
}
