package kern

import "xunet/internal/memnet"

// LiveProcs reports the number of processes that have not exited.
func (m *Machine) LiveProcs() int { return m.procs.Len() }

// Exited reports whether exit processing has completed.
func (p *Proc) Exited() bool { return p.exited }

// TryReadUp drains one buffered message without blocking.
func (d *PseudoDev) TryReadUp() (KMsg, bool) { return d.q.TryGet() }

// Buffered reports the messages currently occupying buffers.
func (d *PseudoDev) Buffered() int { return d.q.Len() }

// FD returns the object at a descriptor.
func (p *Proc) FD(fd int) (FDObject, error) {
	if fd < 0 || fd >= p.fdUsed || p.slot(fd).obj == nil {
		return nil, errEBADF
	}
	return p.slot(fd).obj, nil
}

// OpenFDs counts descriptors holding live objects.
func (p *Proc) OpenFDs() int {
	n := 0
	for i := 0; i < p.fdUsed; i++ {
		if p.slot(i).obj != nil {
			n++
		}
	}
	return n
}

// TimeWaitFDs counts descriptor slots parked in TIME_WAIT.
func (p *Proc) TimeWaitFDs() int {
	n := 0
	for i := 0; i < p.fdUsed; i++ {
		if p.slot(i).timeWait {
			n++
		}
	}
	return n
}

// FreeFDs counts allocatable descriptor slots.
func (p *Proc) FreeFDs() int {
	n := p.fdLimit - p.fdUsed
	for i := 0; i < p.fdUsed; i++ {
		if e := p.slot(i); e.obj == nil && !e.timeWait {
			n++
		}
	}
	return n
}

// Syscall charges the trap cost of one non-switching system call.
func (p *Proc) Syscall() { p.SP.Sleep(p.M.CM.SyscallEntry) }

// Proc looks up a live process by pid.
func (m *Machine) Proc(pid uint32) *Proc {
	p, _ := m.procs.Get(uint64(pid))
	return p
}

// Capacity reports the buffer count.
func (d *PseudoDev) Capacity() int { return d.capacity }

// RemoteAddr reports the peer address.
func (ks *KStream) RemoteAddr() memnet.IPAddr { return ks.s.RemoteAddr() }
