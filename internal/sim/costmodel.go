package sim

import "time"

// CostModel holds the virtual-time costs that calibrate the simulation
// to the paper's 1994 testbed (SGI 4D/30 workstations, IRIX 4.0.1).
// DESIGN.md §6 records the calibration rationale; EXPERIMENTS.md records
// paper-vs-measured results under this model.
type CostModel struct {
	// ContextSwitch is the cost of one user/kernel process switch. The
	// paper attributes the 17–20 ms service-registration RPC almost
	// entirely to its four context switches, giving ≈4.5 ms each.
	ContextSwitch time.Duration

	// Instr is the execution time of one accounted instruction on the
	// ~30 MIPS R3000-class CPU of an SGI 4D/30.
	Instr time.Duration

	// CallLogging is the per-call maintenance-information logging cost
	// at one signaling entity. The paper measures ≈330 ms to establish a
	// router-to-router call, "mainly due to the large amount of
	// maintenance information logged per call by the signaling
	// entities" (two entities ≈ 150 ms each plus switching work).
	CallLogging time.Duration

	// MSL is the maximum segment lifetime of the IPC transport; a closed
	// descriptor lingers for 2·MSL (TIME_WAIT), which drives the
	// fd-table scaling problem of §10.
	MSL time.Duration

	// BindTimeout is sighost's per-VCI timer: a VCI handed to an
	// application that never binds/connects is reclaimed after this.
	BindTimeout time.Duration

	// SyscallEntry is the cost of trapping into the kernel for a system
	// call that does not switch processes (send/recv fast path).
	SyscallEntry time.Duration
}

// DefaultCostModel returns the calibration used throughout the
// reproduction.
func DefaultCostModel() CostModel {
	return CostModel{
		ContextSwitch: 4500 * time.Microsecond,
		Instr:         33 * time.Nanosecond,
		CallLogging:   150 * time.Millisecond,
		MSL:           15 * time.Second,
		BindTimeout:   30 * time.Second,
		SyscallEntry:  100 * time.Microsecond,
	}
}
