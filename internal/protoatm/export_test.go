package protoatm

import (
	"xunet/internal/atm"
	"xunet/internal/mbuf"
	"xunet/internal/memnet"
)

// ErrNoRouter is the host's refusal to encapsulate before a router is
// configured.
var ErrNoRouter = errNoRouter

// Encap is the host-side encapsulation routine the Orc driver calls.
func (l *Layer) Encap(vci atm.VCI, frame *mbuf.Chain) error { return l.encap(vci, frame) }

// FromATM runs a bound VCI's receive handler on frame.
func (l *Layer) FromATM(vci atm.VCI, frame *mbuf.Chain) { l.fromATM(vci, frame) }

// SetHeaderChecksum enables (or disables) the optional encapsulation
// header checksum on frames this layer sends. Verification on receive
// is driven by the header's own flag bit, so mixed deployments
// interoperate. The extra computation is charged to the meter.
func (l *Layer) SetHeaderChecksum(on bool) { l.checksum = on }

// RouterIP reports the configured forwarding address.
func (l *Layer) RouterIP() memnet.IPAddr { return l.routerIP }
