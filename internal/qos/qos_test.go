package qos

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseFormatRoundTrip(t *testing.T) {
	for _, q := range []QoS{
		{BestEffort, 0}, {VBR, 256}, {CBR, 1536}, {CBR, 0}, {BestEffort, 4294967295},
	} {
		got, err := Parse(q.String())
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip %v -> %v", q, got)
		}
	}
}

func TestParseEmptyIsBestEffort(t *testing.T) {
	q, err := Parse("")
	if err != nil || q != BestEffortQoS {
		t.Fatalf("Parse(\"\") = %v, %v", q, err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"cbr", "cbr:", "cbr:x", "turbo:100", ":100", "cbr:-1", "cbr:99999999999"} {
		if _, err := Parse(s); !errors.Is(err, errSyntax) {
			t.Errorf("Parse(%q) err = %v, want errSyntax", s, err)
		}
	}
}

func TestClassString(t *testing.T) {
	if CBR.String() != "cbr" || VBR.String() != "vbr" || BestEffort.String() != "besteffort" {
		t.Fatal("class names wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Fatalf("out of range = %q", Class(9).String())
	}
	if _, err := parseClass("nope"); err == nil {
		t.Fatal("parseClass accepted junk")
	}
}

// TestQoSString holds the strconv rendering to what fmt.Sprintf printed:
// every class, one past them, and bandwidths 0 and the largest.
func TestQoSString(t *testing.T) {
	for _, c := range []Class{BestEffort, VBR, CBR, numClasses, 255} {
		for _, bw := range []uint32{0, 1, 1536, 4294967295} {
			q := QoS{c, bw}
			name := fmt.Sprintf("class(%d)", uint8(c))
			if c < numClasses {
				name = classNames[c]
			}
			if want := fmt.Sprintf("%s:%d", name, bw); q.String() != want {
				t.Errorf("%#v.String() = %q, want %q", q, q.String(), want)
			}
		}
	}
}

func TestWeakerOrEqual(t *testing.T) {
	req := QoS{CBR, 1000}
	cases := []struct {
		q    QoS
		want bool
	}{
		{QoS{CBR, 1000}, true},
		{QoS{CBR, 999}, true},
		{QoS{VBR, 1000}, true},
		{QoS{BestEffort, 0}, true},
		{QoS{CBR, 1001}, false},
		{QoS{VBR, 2000}, false},
	}
	for _, c := range cases {
		if got := c.q.WeakerOrEqual(req); got != c.want {
			t.Errorf("%v weaker-or-equal %v = %v, want %v", c.q, req, got, c.want)
		}
	}
}

func TestNegotiateClamps(t *testing.T) {
	req := QoS{VBR, 500}
	// Server tries to upgrade: clamped back to the request.
	got := Negotiate(req, QoS{CBR, 900})
	if got != (QoS{VBR, 500}) {
		t.Fatalf("upgrade not clamped: %v", got)
	}
	// Server weakens: taken as is.
	got = Negotiate(req, QoS{BestEffort, 100})
	if got != (QoS{BestEffort, 100}) {
		t.Fatalf("weaken altered: %v", got)
	}
}

func TestReserved(t *testing.T) {
	if (QoS{BestEffort, 500}).Reserved() {
		t.Fatal("best effort reserved")
	}
	if (QoS{CBR, 0}).Reserved() {
		t.Fatal("zero-bandwidth CBR reserved")
	}
	if !(QoS{CBR, 1}).Reserved() {
		t.Fatal("CBR not reserved")
	}
}

func TestBookAdmitRelease(t *testing.T) {
	b := NewBook(1000)
	k1, err := b.Admit(QoS{CBR, 600})
	if err != nil {
		t.Fatal(err)
	}
	if b.Available() != 400 || b.Reserved() != 600 {
		t.Fatalf("avail=%d reserved=%d", b.Available(), b.Reserved())
	}
	// Second CBR that does not fit.
	if _, err := b.Admit(QoS{CBR, 500}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("oversubscription err = %v", err)
	}
	// VBR books half its rate: 800/2=400 fits exactly.
	k2, err := b.Admit(QoS{VBR, 800})
	if err != nil {
		t.Fatal(err)
	}
	if b.Available() != 0 {
		t.Fatalf("avail = %d", b.Available())
	}
	// Best effort always fits.
	if _, err := b.Admit(QoS{BestEffort, 999999}); err != nil {
		t.Fatal(err)
	}
	b.Release(k1)
	if b.Available() != 600 {
		t.Fatalf("after release avail = %d", b.Available())
	}
	b.Release(k1) // idempotent
	if b.Available() != 600 {
		t.Fatal("double release changed book")
	}
	b.Release(k2)
	if b.Reserved() != 0 {
		t.Fatalf("reserved = %d after all releases", b.Reserved())
	}
	if b.Bookings() != 1 { // the best-effort booking remains
		t.Fatalf("bookings = %d", b.Bookings())
	}
	if b.Capacity() != 1000 {
		t.Fatalf("capacity = %d", b.Capacity())
	}
}

// Property: parse(format(q)) == q for every descriptor.
func TestQuickRoundTrip(t *testing.T) {
	f := func(class uint8, bw uint32) bool {
		q := QoS{Class(class % uint8(numClasses)), bw}
		got, err := Parse(q.String())
		return err == nil && got == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Negotiate never strengthens the request.
func TestQuickNegotiateMonotone(t *testing.T) {
	f := func(rc, oc uint8, rb, ob uint32) bool {
		req := QoS{Class(rc % uint8(numClasses)), rb}
		off := QoS{Class(oc % uint8(numClasses)), ob}
		return Negotiate(req, off).WeakerOrEqual(req)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a book never oversubscribes and releases restore capacity.
func TestQuickBookConservation(t *testing.T) {
	f := func(reqs []uint16) bool {
		b := NewBook(10000)
		var keys []uint32
		for _, r := range reqs {
			k, err := b.Admit(QoS{CBR, uint32(r)})
			if err == nil {
				keys = append(keys, k)
			}
			if b.Reserved() > b.Capacity() {
				return false
			}
		}
		for _, k := range keys {
			b.Release(k)
		}
		return b.Reserved() == 0 && b.Available() == 10000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
