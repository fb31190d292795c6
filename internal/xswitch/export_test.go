package xswitch

import (
	"xunet/internal/qos"
	"xunet/internal/sim"
)

// Eng returns the engine this switch's events run on.
func (s *Switch) Eng() *sim.Engine { return s.dom.eng }

// Eng returns the engine this endpoint's events run on.
func (ep *Endpoint) Eng() *sim.Engine { return ep.dom.eng }

// Hops reports the number of trunks the circuit crosses (the paper's
// testbed path is "three hop (two switch)").
func (vc *VC) Hops() int { return len(vc.hops) }

// LossRate reports the drop fraction for one class (0 when idle).
func (s ClassCellStats) LossRate(c qos.Class) float64 {
	total := s.Sent[c] + s.Dropped[c]
	if total == 0 {
		return 0
	}
	return float64(s.Dropped[c]) / float64(total)
}
