package hobbit

import "xunet/internal/atm"

// Handler returns the installed handler for a VCI, or nil.
func (d *Driver) Handler(vci atm.VCI) frameHandler { return d.vc(vci).h }

// Board returns the attached board, or nil on a host.
func (d *Driver) Board() *Board { return d.board }
