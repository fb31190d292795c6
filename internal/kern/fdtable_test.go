package kern

import (
	"errors"
	"testing"
	"time"
)

// The descriptor table starts on an array inside the Proc and gets its
// overflow array only when a process outgrows that. These tests pin the
// allocation, the slot order across the two arrays, and the one pointer
// that outlives the process: a TIME_WAIT timer's.

func TestSpawnThreeDescriptorProcessAllocs(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = FixedFDTableSize
	fds := [3]fakeFD{}
	var last *Proc
	body := func(p *Proc) {
		for i := range fds {
			if _, err := p.AllocFD(&fds[i]); err != nil {
				t.Error(err)
			}
		}
		last = p
	}
	spawn := func() {
		h.Spawn("app", body)
		e.Run()
	}
	spawn() // warm the coroutine and event pools
	// The kernel Proc, its name, the body wrapper and the sim Proc.
	if avg := testing.AllocsPerRun(100, spawn); avg > 4 {
		t.Errorf("spawning a three-descriptor process allocates %.1f times, want <= 4", avg)
	}
	if last.fdMore != nil {
		t.Error("a three-descriptor process allocated an overflow table")
	}
	if last.FreeFDs() != FixedFDTableSize {
		t.Errorf("FreeFDs after exit = %d, want %d", last.FreeFDs(), FixedFDTableSize)
	}
}

func TestLowestFreeSlotAcrossTableGrowth(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = 8
	h.Spawn("app", func(p *Proc) {
		if p.FreeFDs() != 8 || p.OpenFDs() != 0 {
			t.Errorf("fresh table: free=%d open=%d", p.FreeFDs(), p.OpenFDs())
		}
		for want := 0; want < 8; want++ {
			fd, err := p.AllocFD(&fakeFD{})
			if err != nil || fd != want {
				t.Errorf("alloc %d: fd=%d err=%v", want, fd, err)
			}
			if p.FreeFDs() != 7-want {
				t.Errorf("after %d allocs FreeFDs=%d", want+1, p.FreeFDs())
			}
		}
		if _, err := p.AllocFD(&fakeFD{}); !errors.Is(err, ErrEMFILE) {
			t.Errorf("ninth alloc: %v, want EMFILE", err)
		}
		// Free one slot in each array, out of order: lowest first.
		_ = p.CloseFD(6)
		_ = p.CloseFD(2)
		if p.FreeFDs() != 2 || p.OpenFDs() != 6 {
			t.Errorf("after two closes: free=%d open=%d", p.FreeFDs(), p.OpenFDs())
		}
		for _, want := range []int{2, 6} {
			if fd, err := p.AllocFD(&fakeFD{}); err != nil || fd != want {
				t.Errorf("realloc: fd=%d err=%v, want %d", fd, err, want)
			}
		}
		if _, err := p.FD(8); !errors.Is(err, errEBADF) {
			t.Errorf("FD(8) = %v, want EBADF", err)
		}
		if err := p.CloseFD(8); !errors.Is(err, errEBADF) {
			t.Errorf("CloseFD(8) = %v, want EBADF", err)
		}
	})
	e.Run()
}

// The TIME_WAIT timer of a closed descriptor fires 2·MSL later whether
// or not its process is still there. It must land on that process's
// slot — inline or overflow — and nowhere else.
func TestTimeWaitTimerOutlivesProcess(t *testing.T) {
	e, h, _ := rig(t)
	h.FDTableSize = 8
	var dead *Proc
	h.Spawn("short-lived", func(p *Proc) {
		dead = p
		for i := 0; i < 6; i++ {
			_, _ = p.AllocFD(&fakeTWFD{})
		}
		_ = p.CloseFD(0) // inline slot
		_ = p.CloseFD(5) // overflow slot
		// Exit closes the other four without TIME_WAIT.
	})
	e.RunFor(time.Millisecond)
	if !dead.Exited() || dead.TimeWaitFDs() != 2 {
		t.Fatalf("exited=%v timeWait=%d, want exited with 2 slots in TIME_WAIT", dead.Exited(), dead.TimeWaitFDs())
	}
	var next *Proc
	h.Spawn("successor", func(p *Proc) {
		next = p
		for i := 0; i < 6; i++ {
			_, _ = p.AllocFD(&fakeTWFD{})
		}
		_ = p.CloseFD(5)
		p.SP.Sleep(3 * h.CM.MSL)
	})
	// The successor closed its descriptor 1 ms after the dead process
	// did: stop between the two expiries.
	e.RunFor(2*h.CM.MSL - time.Millisecond/2)
	if dead.TimeWaitFDs() != 0 {
		t.Fatalf("dead process still has %d slots in TIME_WAIT after 2·MSL", dead.TimeWaitFDs())
	}
	if next.TimeWaitFDs() != 1 || next.OpenFDs() != 5 || next.FreeFDs() != 2 {
		t.Fatalf("successor disturbed: timeWait=%d open=%d free=%d, want 1/5/2",
			next.TimeWaitFDs(), next.OpenFDs(), next.FreeFDs())
	}
	e.Run()
	if next.TimeWaitFDs() != 0 || !next.Exited() {
		t.Fatalf("successor: timeWait=%d exited=%v", next.TimeWaitFDs(), next.Exited())
	}
}
