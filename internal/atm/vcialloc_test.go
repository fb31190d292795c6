package atm

import "testing"

func TestVCIAllocBasics(t *testing.T) {
	a := NewVCIAlloc(0) // clamps to 32
	if v := a.Alloc(); v != 32 {
		t.Fatalf("first Alloc = %d, want 32", v)
	}
	if v := a.Alloc(); v != 33 {
		t.Fatalf("second Alloc = %d, want 33", v)
	}
	if !a.InUse(32) || a.InUse(34) {
		t.Fatal("InUse bookkeeping wrong")
	}
	a.Free(32)
	a.Free(32) // double free ignored
	if v := a.Alloc(); v != 32 {
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
		got[i] = a.Alloc()
	}
	a.Free(got[1])
	a.Free(got[3])
	if v := a.Alloc(); v != got[3] {
		t.Fatalf("Alloc = %d, want most recently freed %d", v, got[3])
	}
	if v := a.Alloc(); v != got[1] {
		t.Fatalf("Alloc = %d, want %d", v, got[1])
	}
}

func TestVCIAllocReserveAndExhaustion(t *testing.T) {
	a := NewVCIAlloc(MaxVCI - 1)
	if v := a.Alloc(); v != MaxVCI-1 {
		t.Fatalf("Alloc = %d, want %d", v, MaxVCI-1)
	}
	if v := a.Alloc(); v != MaxVCI {
		t.Fatalf("Alloc = %d, want %d", v, MaxVCI)
	}
	if v := a.Alloc(); v != 0 {
		t.Fatalf("Alloc on exhausted space = %d, want 0", v)
	}
	// Freeing a VCI makes it allocatable again.
	a.Free(MaxVCI - 1)
	if v := a.Alloc(); v != MaxVCI-1 {
		t.Fatalf("Alloc after Free = %d, want %d", v, MaxVCI-1)
	}
}
