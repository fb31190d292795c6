// Package core assembles the paper's contribution into deployable
// units: a Stack is one machine running the native-mode ATM protocol
// suite — the simulated kernel with the /dev/anand pseudo-device, the
// PF_XUNET protocol family, the IPPROTO_ATM encapsulation layer, and
// (on routers) the Hobbit board attached to the ATM fabric.
//
// Terminology follows §2 of the paper: machines with an ATM interface
// are routers; machines that reach the ATM network only over IP are
// hosts. "If a call originates from machine A, via routers B and C to
// machine D, we call A the host, B the router, C the remote router, and
// D the remote host."
package core

import (
	"fmt"

	"xunet/internal/atm"
	"xunet/internal/hobbit"
	"xunet/internal/kern"
	"xunet/internal/memnet"
	"xunet/internal/pfxunet"
	"xunet/internal/protoatm"
	"xunet/internal/sim"
	"xunet/internal/xswitch"
)

// Stack is one machine's native-mode protocol stack.
type Stack struct {
	// M is the machine: kernel, processes, descriptors, pseudo-device.
	M *kern.Machine
	// PF is the PF_XUNET protocol family.
	PF *pfxunet.Family
	// ATM is the IPPROTO_ATM encapsulation layer.
	ATM *protoatm.Layer
	// Board is the Hobbit host interface; nil on hosts.
	Board *hobbit.Board
	// Addr is the machine's ATM address ("mh.rt" style; hosts carry a
	// pseudo-address used as the encapsulation header's source field).
	Addr atm.Addr
	// Router reports whether this stack has an ATM interface.
	Router bool
}

// RouterConfig describes a router stack.
type RouterConfig struct {
	Name          string
	Addr          atm.Addr
	IP            *memnet.Node
	Fabric        *xswitch.Fabric
	Switch        *xswitch.Switch
	DeviceBuffers int // zero means kern's default, 8
	FDTableSize   int // zero means kern.DefaultFDTableSize
}

// NewRouter builds a router: full stack plus a Hobbit board attached to
// the fabric over a TAXI link.
func NewRouter(e *sim.Engine, cm sim.CostModel, cfg RouterConfig) (*Stack, error) {
	m := kern.NewMachine(cfg.Name, e, cm, cfg.IP)
	if cfg.FDTableSize > 0 {
		m.FDTableSize = cfg.FDTableSize
	}
	m.InstallPseudoDev(cfg.DeviceBuffers)
	ep, err := cfg.Fabric.AttachOn(cfg.Addr, nil, cfg.Switch, xswitch.TAXI(), e)
	if err != nil {
		return nil, fmt.Errorf("core: attach %s: %w", cfg.Addr, err)
	}
	board := hobbit.NewBoard(ep)
	board.Instrument(ep.Now, m.Obs)
	ep.SetSink(board)
	m.Orc.AttachBoard(board)
	m.Orc.Leases = ep.Lease
	s := &Stack{
		M:      m,
		PF:     pfxunet.New(m),
		ATM:    protoatm.New(m, cfg.Addr, protoatm.RouterMode),
		Board:  board,
		Addr:   cfg.Addr,
		Router: true,
	}
	return s, nil
}

// HostConfig describes a host stack (no ATM interface).
type HostConfig struct {
	Name          string
	Addr          atm.Addr // pseudo ATM address for the encap header
	IP            *memnet.Node
	RouterIP      memnet.IPAddr // target router for IPPROTO_ATM
	DeviceBuffers int
	FDTableSize   int
}

// NewHost builds a host: the same PF_XUNET stack, with the Orc driver's
// output wired to the encapsulation layer instead of a board, exactly
// as §7.4 ported the router implementation to non-ATM hosts.
func NewHost(e *sim.Engine, cm sim.CostModel, cfg HostConfig) *Stack {
	m := kern.NewMachine(cfg.Name, e, cm, cfg.IP)
	if cfg.FDTableSize > 0 {
		m.FDTableSize = cfg.FDTableSize
	}
	m.InstallPseudoDev(cfg.DeviceBuffers)
	s := &Stack{
		M:      m,
		PF:     pfxunet.New(m),
		ATM:    protoatm.New(m, cfg.Addr, protoatm.HostMode),
		Addr:   cfg.Addr,
		Router: false,
	}
	s.ATM.ConfigureRouter(cfg.RouterIP)
	return s
}

// Spawn starts an application process on this stack's machine.
func (s *Stack) Spawn(name string, body func(p *kern.Proc)) *kern.Proc {
	return s.M.Spawn(name, body)
}
