package signaling

import (
	"testing"
	"time"

	"xunet/internal/core"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

// loneSimHost starts a signaling entity on a one-router world.
func loneSimHost(t *testing.T) (*sim.Engine, *SimHost) {
	t.Helper()
	e := sim.New(1)
	fab := xswitch.NewFabric(e)
	sw, err := fab.AddSwitch("sw")
	if err != nil {
		t.Fatal(err)
	}
	ip := memnet.New(e).MustAddNode("mh.rt", memnet.IP4(10, 0, 0, 1))
	stack, err := core.NewRouter(e, sim.DefaultCostModel(), core.RouterConfig{
		Name: "mh.rt", Addr: "mh.rt", IP: ip, Fabric: fab, Switch: sw,
		DeviceBuffers: kern.FixedDeviceBuffers, FDTableSize: kern.FixedFDTableSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := StartSim(stack, fab)
	e.RunFor(time.Millisecond)
	return e, h
}

// After's records are recycled, so a CancelFunc can outlive its timer
// and find the record armed for someone else. Each way a timer ends —
// fired and run, canceled before firing, canceled between firing and
// the actor taking it off the inbox — must release the record exactly
// once and leave stale CancelFuncs inert.
func TestSimTimerRecycling(t *testing.T) {
	e, h := loneSimHost(t)
	defer e.Shutdown()
	env := h.env
	ran := make(map[string]int)
	arm := func(d time.Duration, name string) CancelFunc {
		return env.After(d, "test", func() { ran[name]++ })
	}
	inActor := func(fn func()) {
		h.inbox.Put(input{fn: fn})
		e.RunFor(20 * time.Millisecond)
	}
	records := func() int {
		seen := make(map[*simTimer]bool)
		for st := env.timers; st != nil; st = st.next {
			if seen[st] {
				t.Fatalf("timer record %p is on the free list twice", st)
			}
			seen[st] = true
		}
		return len(seen)
	}

	var fired, canceled, late CancelFunc
	inActor(func() { fired = arm(time.Millisecond, "fired") })
	if ran["fired"] != 1 || records() != 1 {
		t.Fatalf("fired timer: ran %d times, %d records free", ran["fired"], records())
	}

	// The record now serves "next"; the stale cancel must not touch it.
	inActor(func() {
		arm(time.Millisecond, "next")
		fired()
	})
	if ran["next"] != 1 {
		t.Fatal("a stale CancelFunc canceled the record's next timer")
	}

	// Canceled before firing: released at once, and only once.
	inActor(func() {
		canceled = arm(time.Millisecond, "canceled")
		canceled()
		canceled()
		arm(time.Millisecond, "after-cancel")
		canceled()
	})
	if ran["canceled"] != 0 || ran["after-cancel"] != 1 || records() != 1 {
		t.Fatalf("canceled ran %d, after-cancel ran %d, %d records free",
			ran["canceled"], ran["after-cancel"], records())
	}

	// Canceled while the firing sits in the inbox behind a busy actor.
	inActor(func() {
		late = arm(time.Millisecond, "late")
		env.Charge(2 * time.Millisecond)
		late()
	})
	if ran["late"] != 0 || records() != 1 {
		t.Fatalf("late-canceled timer ran %d times, %d records free", ran["late"], records())
	}
	inActor(func() { late() })
	if records() != 1 {
		t.Fatalf("%d records free after a stale cancel", records())
	}
}
