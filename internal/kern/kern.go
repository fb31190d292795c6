// Package kern simulates the slice of the IRIX kernel the paper's
// extensions live in: processes with exit processing, per-process file
// descriptor tables (with TIME_WAIT retention of closed IPC
// descriptors), a protocol-family registry with soisdisconnected, the
// /dev/anand pseudo-device, and kernel-to-signaling indications for
// process termination, bind and connect.
//
// The pseudo-device reproduces §5.3 and §7.2 faithfully: the kernel
// queues small messages upward into a bounded buffer that the signaling
// entity drains through select(), and writes downward invoke the socket
// layer's soisdisconnected. The bounded buffer (8 buffers originally,
// 80 after the fix) and the finite fd table (20, raised to 100) are the
// two scaling limits §10 reports; both are configurable here so
// experiment E5 can sweep them.
package kern

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"xunet/internal/atm"
	"xunet/internal/cost"
	"xunet/internal/hobbit"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
	"xunet/internal/obs"
	"xunet/internal/sim"
	"xunet/internal/trace"
)

// Default table sizes from §10.
const (
	DefaultFDTableSize   = 20
	defaultDeviceBuffers = 8
	FixedFDTableSize     = 100
	FixedDeviceBuffers   = 80
)

// Errors from the kernel layer.
var (
	ErrEMFILE     = errors.New("kern: per-process file descriptor table full (EMFILE)")
	errEBADF      = errors.New("kern: bad file descriptor")
	errProcExited = errors.New("kern: process has exited")
)

// ProtoFamily is a protocol family registered with a machine (the
// PF_XUNET stack). The kernel calls Soisdisconnected when the signaling
// entity writes a disconnect command down the pseudo-device.
type ProtoFamily interface {
	// Soisdisconnected marks the socket bound to vci unusable and wakes
	// any blocked readers. Unknown VCIs are ignored.
	Soisdisconnected(vci atm.VCI)
}

// FDObject is anything held in a file descriptor slot.
type FDObject interface {
	// KClose releases the object; called on explicit close and on
	// process exit. Must be idempotent.
	KClose()
}

// timeWaiter marks fd objects whose closed descriptor slot lingers for
// 2·MSL, per §10 ("TCP keeps the descriptor in the table for two
// Maximum Segment Lifetimes").
type timeWaiter interface {
	holdsTimeWait() bool
}

// Machine is one simulated computer: engine, cost model, IP interface,
// optional ATM interface, pseudo-device, and processes. Its meter and
// mbuf pool are its own, used only by events on its engine.
type Machine struct {
	Name  string
	E     *sim.Engine
	CM    sim.CostModel
	Meter *cost.Meter
	Pool  *mbuf.Pool

	// IP is the machine's internet interface; Orc its ATM device driver
	// (with a Hobbit board on routers, an encapsulation backend on
	// hosts).
	IP  *memnet.Node
	Orc *hobbit.Driver

	// Dev is the /dev/anand pseudo-device, nil until installed.
	Dev *PseudoDev

	// Obs is the machine's telemetry registry: every component on the
	// machine (pseudo-device, ATM layer, sighost) registers its
	// metrics here, so one snapshot covers the whole stack.
	Obs *obs.Registry

	// TraceC is the causal-trace collector shared by every machine in a
	// testbed (nil or disabled means no tracing). Components reach it
	// through their machine so a call's spans land in one tree.
	TraceC *trace.Collector

	// FDTableSize applies to processes spawned after it is set.
	FDTableSize int

	families []ProtoFamily
	procs    sim.Index[*Proc] // live processes, by PID
	nextPID  uint32

	ctSpawned *obs.Counter // kern.procs.spawned
	gLive     *obs.Gauge   // kern.procs.live (with high-water mark)
}

// NewMachine assembles a machine. The IP node and the Orc driver charge
// the machine's meter and draw chains from its pool.
func NewMachine(name string, e *sim.Engine, cm sim.CostModel, ip *memnet.Node) *Machine {
	m := &Machine{
		Name:        name,
		E:           e,
		CM:          cm,
		Meter:       cost.NewMeter(),
		Pool:        new(mbuf.Pool),
		IP:          ip,
		Obs:         obs.NewRegistry(),
		FDTableSize: DefaultFDTableSize,
	}
	if ip != nil {
		ip.Meter, ip.Pool = m.Meter, m.Pool
	}
	m.Orc = hobbit.NewDriver(m.Meter)
	m.Orc.Pool = m.Pool
	m.ctSpawned = m.Obs.Counter("kern.procs.spawned")
	m.gLive = m.Obs.Gauge("kern.procs.live")
	return m
}

// InstallPseudoDev creates /dev/anand with the given buffer count and
// wires its downward path to the machine's protocol families.
func (m *Machine) InstallPseudoDev(buffers int) *PseudoDev {
	m.Dev = newPseudoDev(m.E, buffers)
	m.Dev.instrument(m.Obs)
	m.Dev.onDown = func(cmd DownCmd) {
		if cmd.Kind == DownDisconnect {
			for _, f := range m.families {
				f.Soisdisconnected(cmd.VCI)
			}
		}
	}
	return m.Dev
}

// RegisterFamily adds a protocol family to the machine.
func (m *Machine) RegisterFamily(f ProtoFamily) { m.families = append(m.families, f) }

// Proc is a simulated Unix process.
type Proc struct {
	M    *Machine
	PID  uint32
	Name string
	// SP is the underlying simulation process; kernel code blocks it
	// for syscalls, context switches and I/O waits.
	SP *sim.Proc

	// The descriptor table. fd0 holds the first slots inline, so a
	// process with a handful of descriptors — nearly all of them — never
	// allocates one; fdMore, made at the full remaining size when slot
	// len(fd0) is first needed, holds the rest. Slots below fdUsed have
	// been handed out at some time; those from there up to fdLimit are
	// free. Entries never move, and the table is not recycled at exit: a
	// TIME_WAIT timer armed by CloseFD points at its slot for 2·MSL.
	fd0     [4]fdEntry
	fdMore  []fdEntry
	fdUsed  int
	fdLimit int // the machine's FDTableSize at spawn
	exited  bool
}

// slot returns descriptor fd's entry, for 0 <= fd < fdUsed.
func (p *Proc) slot(fd int) *fdEntry {
	if fd < len(p.fd0) {
		return &p.fd0[fd]
	}
	return &p.fdMore[fd-len(p.fd0)]
}

type fdEntry struct {
	obj      FDObject
	timeWait bool
}

// Spawn starts a process running body. When body returns — or the
// process is killed — exit processing closes every open descriptor and
// posts a termination indication to the pseudo-device, which is how the
// signaling entity learns about dead applications (§5.3). A process
// with a nil body runs no code: a daemon whose work runs in events.
func (m *Machine) Spawn(name string, body func(p *Proc)) *Proc {
	m.nextPID++
	p := &Proc{
		M:       m,
		PID:     m.nextPID,
		Name:    name,
		fdLimit: m.FDTableSize,
	}
	m.procs.Put(uint64(p.PID), p)
	m.ctSpawned.Inc()
	m.gLive.Set(int64(m.procs.Len()))
	if body != nil {
		var pid [10]byte // "machine/kind#pid", built in one allocation
		spName := m.Name + "/" + name + "#" + string(strconv.AppendUint(pid[:0], uint64(p.PID), 10))
		p.SP = m.E.Go(spName, func(sp *sim.Proc) {
			defer p.exit()
			body(p)
		})
	}
	return p
}

// Kill terminates the process abruptly; exit processing still runs,
// exactly as the kernel reclaims a crashed program's resources.
func (p *Proc) Kill() { p.SP.Kill() }

func (p *Proc) exit() {
	if p.exited {
		return
	}
	p.exited = true
	p.M.procs.Delete(uint64(p.PID))
	p.M.gLive.Set(int64(p.M.procs.Len()))
	for i := 0; i < p.fdUsed; i++ {
		if e := p.slot(i); e.obj != nil {
			o := e.obj
			e.obj = nil
			e.timeWait = false
			o.KClose()
		}
	}
	// The kernel hands the termination message to the signaling entity
	// through the pseudo-device.
	if p.M.Dev != nil {
		p.M.Dev.PostUp(KMsg{Kind: MsgExit, PID: p.PID})
	}
}

// AllocFD installs obj in the lowest free descriptor slot. Slots parked
// in TIME_WAIT are not free — this is the §10 scaling limit.
func (p *Proc) AllocFD(obj FDObject) (int, error) {
	if p.exited {
		return -1, errProcExited
	}
	for i := 0; i < p.fdUsed; i++ {
		if e := p.slot(i); e.obj == nil && !e.timeWait {
			e.obj = obj
			return i, nil
		}
	}
	if p.fdUsed < p.fdLimit {
		if p.fdUsed == len(p.fd0) && p.fdMore == nil {
			p.fdMore = make([]fdEntry, p.fdLimit-len(p.fd0))
		}
		p.fdUsed++
		p.slot(p.fdUsed - 1).obj = obj
		return p.fdUsed - 1, nil
	}
	return -1, fmt.Errorf("%w: %d slots on %s/%s", ErrEMFILE, p.fdLimit, p.M.Name, p.Name)
}

// CloseFD closes a descriptor. Objects with TIME_WAIT semantics keep
// the slot busy for 2·MSL after the close.
func (p *Proc) CloseFD(fd int) error {
	if fd < 0 || fd >= p.fdUsed {
		return errEBADF
	}
	e := p.slot(fd)
	obj := e.obj
	if obj == nil {
		return errEBADF
	}
	e.obj = nil
	if tw, ok := obj.(timeWaiter); ok && tw.holdsTimeWait() {
		e.timeWait = true
		p.M.E.ScheduleArg(2*p.M.CM.MSL, endTimeWait, e)
	}
	obj.KClose()
	return nil
}

func endTimeWait(slot any) { slot.(*fdEntry).timeWait = false }

// ContextSwitches charges n process switches to this process's virtual
// time. The signaling RPC of §9 costs four of these.
func (p *Proc) ContextSwitches(n int) {
	if n > 0 {
		p.SP.Sleep(time.Duration(n) * p.M.CM.ContextSwitch)
	}
}
