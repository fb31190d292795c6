package sigmsg

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"xunet/internal/atm"
)

func TestRoundTripAllKinds(t *testing.T) {
	kinds := []Kind{
		KindExportSrv, KindServiceRegs, KindUnexportSrv, KindIncomingConn,
		KindAcceptConn, KindRejectConn, KindVCIForConn, KindConnectReq,
		KindReqID, KindCancelReq, KindConnFailed, KindError,
		KindSetup, KindSetupAck, KindSetupRej, KindConnectDone, KindRelease,
	}
	for _, k := range kinds {
		m := Msg{
			Kind:       k,
			Service:    "file-service",
			Dest:       "mh.rt",
			Src:        "ucb.rt",
			QoS:        "cbr:1536",
			Comment:    "this is a comment",
			Reason:     "because",
			Cookie:     0xBEEF,
			VCI:        atm.VCI(1234),
			NotifyPort: 5001,
			CallID:     0xDEADBEEF,
		}
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != m {
			t.Fatalf("%v: round trip\n got %+v\nwant %+v", k, got, m)
		}
	}
}

func TestRoundTripEmptyFields(t *testing.T) {
	m := Msg{Kind: KindReqID, Cookie: 7}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, errShort) {
		t.Fatalf("nil: %v", err)
	}
	if _, err := Decode(make([]byte, 5)); !errors.Is(err, errShort) {
		t.Fatalf("short: %v", err)
	}
	b := Msg{Kind: KindSetup}.Encode()
	b[0] = 200
	if _, err := Decode(b); !errors.Is(err, errBadKind) {
		t.Fatalf("bad kind: %v", err)
	}
	// Truncated string section.
	b = Msg{Kind: KindSetup, Service: "abcdef"}.Encode()
	if _, err := Decode(b[:len(b)-3]); !errors.Is(err, errShort) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestKindNames(t *testing.T) {
	if KindExportSrv.String() != "EXPORT_SRV" {
		t.Fatal(KindExportSrv.String())
	}
	if KindVCIForConn.String() != "VCI_FOR_CONN" {
		t.Fatal(KindVCIForConn.String())
	}
	if Kind(250).String() != "Kind(250)" {
		t.Fatal(Kind(250).String())
	}
}

func TestStringTrace(t *testing.T) {
	m := Msg{Kind: KindConnectReq, Dest: "mh.rt", Service: "echo", QoS: "cbr:64", Cookie: 9}
	s := m.String()
	for _, want := range []string{"CONNECT_REQ", "svc=echo", "dest=mh.rt", "cookie=9", "qos=cbr:64"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace %q missing %q", s, want)
		}
	}
}

// Property: every message round-trips.
func TestQuickRoundTrip(t *testing.T) {
	f := func(kindSel uint8, service, dest, src, qos, comment, reason string, cookie, nport uint16, vci uint16, callID uint32) bool {
		kinds := []Kind{KindExportSrv, KindConnectReq, KindSetup, KindRelease, KindVCIForConn}
		m := Msg{
			Kind:       kinds[int(kindSel)%len(kinds)],
			Service:    clip(service),
			Dest:       atm.Addr(clip(dest)),
			Src:        atm.Addr(clip(src)),
			QoS:        clip(qos),
			Comment:    clip(comment),
			Reason:     clip(reason),
			Cookie:     cookie,
			VCI:        atm.VCI(vci),
			NotifyPort: nport,
			CallID:     callID,
		}
		got, err := Decode(m.Encode())
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clip(s string) string {
	if len(s) > 60000 {
		return s[:60000]
	}
	return s
}

// The codec's steady state must be allocation-free: AppendTo into a
// warm buffer and DecodeInto through a warm intern table are the per-
// message costs on every signaling hot path.
func TestCodecSteadyStateAllocs(t *testing.T) {
	m := Msg{
		Kind: KindSetup, Service: "echo", Dest: "ucb.rt", Src: "mh.rt",
		QoS: "cbr:64", Cookie: 7, VCI: 40, CallID: 9, Seq: 3, Epoch: 1,
	}
	buf := make([]byte, 0, m.EncodedSize())
	var dec Decoder
	var out Msg
	// Warm the intern table.
	buf = m.AppendTo(buf[:0])
	if err := dec.DecodeInto(&out, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = m.AppendTo(buf[:0])
		if err := dec.DecodeInto(&out, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode+decode steady state allocates %.1f/op, want 0", allocs)
	}
	if out != m {
		t.Fatalf("round trip changed message: %+v vs %+v", m, out)
	}
}
