package atm

import "testing"

func TestVCIAllocBasics(t *testing.T) {
	a := NewVCIAlloc(0) // clamps to 32
	if v := a.Alloc().VCI; v != 32 {
		t.Fatalf("first Alloc = %d, want 32", v)
	}
	if v := a.Alloc().VCI; v != 33 {
		t.Fatalf("second Alloc = %d, want 33", v)
	}
	if !a.InUse(32) || a.InUse(34) {
		t.Fatal("InUse bookkeeping wrong")
	}
	a.Free(32)
	a.Free(32) // double free ignored
	if v := a.Alloc().VCI; v != 32 {
		t.Fatalf("Alloc after Free = %d, want LIFO reuse of 32", v)
	}
	if a.Live() != 2 {
		t.Fatalf("Live = %d, want 2", a.Live())
	}
}

func TestVCIAllocLIFOOrder(t *testing.T) {
	a := NewVCIAlloc(32)
	var got [4]VCI
	for i := range got {
		got[i] = a.Alloc().VCI
	}
	a.Free(got[1])
	a.Free(got[3])
	if v := a.Alloc().VCI; v != got[3] {
		t.Fatalf("Alloc = %d, want most recently freed %d", v, got[3])
	}
	if v := a.Alloc().VCI; v != got[1] {
		t.Fatalf("Alloc = %d, want %d", v, got[1])
	}
}

func TestVCIAllocReserveAndExhaustion(t *testing.T) {
	a := NewVCIAlloc(MaxVCI - 1)
	if v := a.Alloc().VCI; v != MaxVCI-1 {
		t.Fatalf("Alloc = %d, want %d", v, MaxVCI-1)
	}
	if v := a.Alloc().VCI; v != MaxVCI {
		t.Fatalf("Alloc = %d, want %d", v, MaxVCI)
	}
	if v := a.Alloc().VCI; v != 0 {
		t.Fatalf("Alloc on exhausted space = %d, want 0", v)
	}
	// Freeing a VCI makes it allocatable again.
	a.Free(MaxVCI - 1)
	if v := a.Alloc().VCI; v != MaxVCI-1 {
		t.Fatalf("Alloc after Free = %d, want %d", v, MaxVCI-1)
	}
}

// TestVCIAllocLeases: every grant of a VCI gets the next generation, a
// lease outlives its Free until the next grant, and only the latest
// grant, while not yet freed, is held.
func TestVCIAllocLeases(t *testing.T) {
	a := NewVCIAlloc(32)
	if l := a.Lease(40); l != (Lease{VCI: 40}) || a.Holds(l) {
		t.Fatalf("never-granted VCI: lease %+v, held %v", l, a.Holds(l))
	}
	first := a.Alloc()
	if first != (Lease{VCI: 32, Gen: 1}) || !a.Holds(first) {
		t.Fatalf("first grant %+v, held %v", first, a.Holds(first))
	}
	a.Free(first.VCI)
	if a.Lease(first.VCI) != first || a.Holds(first) {
		t.Fatal("a freed VCI's lease must stay its latest grant, no longer held")
	}
	second := a.Alloc()
	if second != (Lease{VCI: 32, Gen: 2}) || a.Holds(first) || !a.Holds(second) {
		t.Fatalf("re-grant %+v: first held %v, second held %v", second, a.Holds(first), a.Holds(second))
	}
}

// TestVCIAllocIndexEdges reads VCIs the per-VCI slices have not grown
// to, and a lease once its VCI is freed: neither is held, and freeing
// a VCI never granted changes nothing.
func TestVCIAllocIndexEdges(t *testing.T) {
	a := NewVCIAlloc(32)
	l := a.Alloc()
	if a.Holds(Lease{VCI: l.VCI + 1, Gen: 1}) || a.InUse(MaxVCI) || a.Holds(Lease{VCI: MaxVCI}) {
		t.Fatal("a VCI past the last granted reads as held")
	}
	a.Free(MaxVCI)
	if a.Live() != 1 || !a.Holds(l) {
		t.Fatalf("freeing an ungranted VCI: %d live, held %v", a.Live(), a.Holds(l))
	}
	a.Free(l.VCI)
	if a.Holds(l) || a.InUse(l.VCI) || a.Live() != 0 {
		t.Fatal("a freed lease reads as held")
	}
	if l2 := a.Alloc(); l2.VCI != l.VCI || a.Holds(l) || !a.Holds(l2) {
		t.Fatalf("regrant of %d: old lease held %v, new %v", l.VCI, a.Holds(l), a.Holds(l2))
	}
}
