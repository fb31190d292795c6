package cost

import (
	"testing"
	"testing/quick"
)

func TestNilMeterIsSafe(t *testing.T) {
	var m *Meter
	m.Charge(IP, 10)
	m.ChargePerMbuf(PFXunet, 3)
	m.Reset()
	if got := m.Count(IP); got != 0 {
		t.Fatalf("nil meter Count = %d, want 0", got)
	}
	if got := m.Total(); got != 0 {
		t.Fatalf("nil meter Total = %d, want 0", got)
	}
	if s := m.Snapshot(); len(s) != 0 {
		t.Fatalf("nil meter Snapshot = %v, want empty", s)
	}
}

func TestChargeAndCount(t *testing.T) {
	m := NewMeter()
	m.Charge(IP, IPRecvCost)
	m.Charge(ProtoATM, ProtoATMRecvTotal)
	m.Charge(OrcDriver, OrcRecvDispatch)
	m.Charge(PFXunet, PFXunetRecvFixed)
	if got := m.Count(IP); got != 57 {
		t.Errorf("IP count = %d, want 57", got)
	}
	if got := m.Count(ProtoATM); got != 36 {
		t.Errorf("IPPROTO_ATM count = %d, want 36", got)
	}
	if got := m.Total(); got != 57+36+2+99 {
		t.Errorf("Total = %d, want 194", got)
	}
}

func TestPaperConstantsMatchTable1(t *testing.T) {
	// The decomposed per-operation charges must sum to the per-layer
	// totals the paper reports in Table 1.
	if ProtoATMRecvTotal != 36 {
		t.Errorf("IPPROTO_ATM receive total = %d, want 36", ProtoATMRecvTotal)
	}
	if ProtoATMSendFixed != 58 {
		t.Errorf("IPPROTO_ATM send fixed = %d, want 58", ProtoATMSendFixed)
	}
	if PFXunetRecvFixed != 99 {
		t.Errorf("PF_XUNET receive fixed = %d, want 99", PFXunetRecvFixed)
	}
	if RouterSwitchTotal != 39 {
		t.Errorf("router switching total = %d, want 39", RouterSwitchTotal)
	}
	recvTotal := IPRecvCost + ProtoATMRecvTotal + OrcRecvDispatch + PFXunetRecvFixed
	if recvTotal != 194 {
		t.Errorf("host receive fixed total = %d, want 194", recvTotal)
	}
	sendTotal := IPSendCost + ProtoATMSendFixed
	if sendTotal != 119 {
		t.Errorf("host send fixed total = %d, want 119", sendTotal)
	}
}

func TestChargePerMbuf(t *testing.T) {
	m := NewMeter()
	m.ChargePerMbuf(PFXunet, 5)
	if got := m.Count(PFXunet); got != 40 {
		t.Errorf("5 mbufs charged %d, want 40", got)
	}
	m.ChargePerMbuf(PFXunet, 0)
	m.ChargePerMbuf(PFXunet, -3)
	if got := m.Count(PFXunet); got != 40 {
		t.Errorf("zero/negative mbuf charge changed count to %d", got)
	}
}

func TestNonPositiveChargeIgnored(t *testing.T) {
	m := NewMeter()
	m.Charge(IP, 0)
	m.Charge(IP, -5)
	if got := m.Count(IP); got != 0 {
		t.Errorf("non-positive charges recorded %d", got)
	}
}

func TestReset(t *testing.T) {
	m := NewMeter()
	m.Charge(Switch, 100)
	m.Charge(Kernel, 7)
	m.Reset()
	if m.Total() != 0 {
		t.Errorf("Total after Reset = %d, want 0", m.Total())
	}
}

func TestSnapshotSub(t *testing.T) {
	m := NewMeter()
	m.Charge(IP, 61)
	before := m.Snapshot()
	m.Charge(IP, 61)
	m.Charge(ProtoATM, 58)
	after := m.Snapshot()
	d := after.Sub(before)
	if d[IP] != 61 {
		t.Errorf("diff IP = %d, want 61", d[IP])
	}
	if d[ProtoATM] != 58 {
		t.Errorf("diff IPPROTO_ATM = %d, want 58", d[ProtoATM])
	}
	if d.Total() != 119 {
		t.Errorf("diff total = %d, want 119", d.Total())
	}
}

func TestSnapshotSubDropsUnchanged(t *testing.T) {
	m := NewMeter()
	m.Charge(IP, 10)
	s := m.Snapshot()
	d := s.Sub(s)
	if len(d) != 0 {
		t.Errorf("self-diff = %v, want empty", d)
	}
}

func TestSnapshotSubNegative(t *testing.T) {
	prev := Snapshot{IP: 100}
	cur := Snapshot{}
	d := cur.Sub(prev)
	if d[IP] != -100 {
		t.Errorf("diff against vanished component = %d, want -100", d[IP])
	}
}

func TestComponentString(t *testing.T) {
	if PFXunet.String() != "PF_XUNET" {
		t.Errorf("PFXunet.String() = %q", PFXunet.String())
	}
	if Component(200).String() != "Component(200)" {
		t.Errorf("out-of-range String() = %q", Component(200).String())
	}
}

func TestComponentsOrder(t *testing.T) {
	cs := Components()
	if len(cs) != int(numComponents) {
		t.Fatalf("Components() has %d entries, want %d", len(cs), numComponents)
	}
	for i, c := range cs {
		if int(c) != i {
			t.Errorf("Components()[%d] = %v", i, c)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	m := NewMeter()
	m.Charge(IP, 57)
	m.Charge(PFXunet, 99)
	s := m.Snapshot().String()
	if s == "" {
		t.Fatal("empty snapshot string")
	}
	// PF_XUNET must render before IP (table order).
	if pf, ip := indexOf(s, "PF_XUNET"), indexOf(s, "IP"); pf < 0 || ip < 0 || pf > ip {
		t.Errorf("table order wrong:\n%s", s)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// A meter has one owner at a time: the sharded engine hands a machine's
// events from worker to worker, each hand-off a synchronisation, as the
// channel is here. Snapshot, Count and Total agree after every owner's
// charges, and a nil meter still charges nothing.
func TestSingleOwnerMeter(t *testing.T) {
	m, handoff := NewMeter(), make(chan *Meter)
	const owners, each = 4, 1000
	for w := 0; w < owners; w++ {
		go func() {
			own := <-handoff
			for i := 0; i < each; i++ {
				own.Charge(Switch, 1)
				own.ChargePerMbuf(PFXunet, 1)
			}
			handoff <- own
		}()
		handoff <- m
		m = <-handoff
		n := int64(w+1) * each
		if m.Count(Switch) != n || m.Count(PFXunet) != n*PerMbuf || m.Total() != n*(1+PerMbuf) {
			t.Fatalf("after owner %d: Switch %d, PF_XUNET %d, Total %d", w, m.Count(Switch), m.Count(PFXunet), m.Total())
		}
		if s := m.Snapshot(); s[Switch] != m.Count(Switch) || s.Total() != m.Total() {
			t.Fatalf("after owner %d: snapshot %v disagrees with the meter", w, s)
		}
	}
	var none *Meter
	none.Charge(Switch, 1)
	if none.Total() != 0 || len(none.Snapshot()) != 0 {
		t.Fatal("a nil meter recorded a charge")
	}
}

// Property: for any sequence of positive charges, Total equals the sum of
// per-component counts, and Snapshot agrees with Count.
func TestQuickMeterConsistency(t *testing.T) {
	f := func(charges []uint16) bool {
		m := NewMeter()
		var want int64
		for i, ch := range charges {
			c := Component(i % int(numComponents))
			m.Charge(c, int64(ch))
			want += int64(ch)
		}
		if m.Total() != want {
			return false
		}
		s := m.Snapshot()
		if s.Total() != want {
			return false
		}
		for c, v := range s {
			if m.Count(c) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sub is the inverse of charging — (after − before) totals the
// charges made between the snapshots.
func TestQuickSnapshotSub(t *testing.T) {
	f := func(first, second []uint8) bool {
		m := NewMeter()
		for i, ch := range first {
			m.Charge(Component(i%int(numComponents)), int64(ch))
		}
		before := m.Snapshot()
		var delta int64
		for i, ch := range second {
			m.Charge(Component(i%int(numComponents)), int64(ch))
			delta += int64(ch)
		}
		d := m.Snapshot().Sub(before)
		return d.Total() == delta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
