// Package qos implements the quality-of-service descriptor that the
// signaling protocol carries between client and server.
//
// The paper treats QoS as an "uninterpreted string" at the signaling
// layer, whose current contents are "only a service class and a
// bandwidth request" per the Xunet II scheduling discipline (Saran,
// Keshav, Kalmanek and Morgan, reference [17]). This package gives the
// string a concrete grammar, negotiation semantics (a server may weaken
// a request, never strengthen it), and the bookkeeping that switches use
// for admission control. The signaling entity itself still relays the
// descriptor as an opaque string, preserving the paper's layering.
package qos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"xunet/internal/sim"
)

// Class is the Xunet service class of a virtual circuit.
type Class uint8

const (
	// BestEffort is unreserved traffic; it receives leftover capacity.
	BestEffort Class = iota
	// VBR is predictive service for bursty sources; its bandwidth figure
	// is an average reservation.
	VBR
	// CBR is guaranteed constant-bit-rate service; its bandwidth is hard
	// reserved at every hop.
	CBR
	numClasses
)

var classNames = [numClasses]string{"besteffort", "vbr", "cbr"}

// String returns the wire name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(" + strconv.Itoa(int(uint8(c))) + ")"
}

// parseClass parses a wire class name.
func parseClass(s string) (Class, error) {
	for i, n := range classNames {
		if s == n {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("qos: unknown service class %q", s)
}

// QoS is a parsed descriptor: <service class, bandwidth>.
type QoS struct {
	Class        Class
	BandwidthKbs uint32 // requested/reserved bandwidth in kilobits per second
}

// BestEffortQoS is the descriptor a client gets when it asks for
// nothing: no reservation at all.
var BestEffortQoS = QoS{Class: BestEffort}

// String formats the descriptor in the wire grammar, e.g. "cbr:1536".
func (q QoS) String() string {
	return q.Class.String() + ":" + strconv.FormatUint(uint64(q.BandwidthKbs), 10)
}

// errSyntax reports an unparseable QoS string.
var errSyntax = errors.New("qos: malformed descriptor")

// Parse parses the wire grammar "<class>:<kbps>". The empty string
// parses as BestEffortQoS, matching the paper's first-cut signaling that
// carried no QoS at all.
func Parse(s string) (QoS, error) {
	if s == "" {
		return BestEffortQoS, nil
	}
	cs, bs, ok := strings.Cut(s, ":")
	if !ok {
		return QoS{}, fmt.Errorf("%w: %q", errSyntax, s)
	}
	c, err := parseClass(cs)
	if err != nil {
		return QoS{}, fmt.Errorf("%w: %q", errSyntax, s)
	}
	bw, err := strconv.ParseUint(bs, 10, 32)
	if err != nil {
		return QoS{}, fmt.Errorf("%w: %q", errSyntax, s)
	}
	return QoS{Class: c, BandwidthKbs: uint32(bw)}, nil
}

// Negotiate applies a server's counter-offer to a client request,
// clamping it so the result never exceeds the request. It returns the
// descriptor the connection is established with.
func Negotiate(requested, offered QoS) QoS {
	out := offered
	if out.Class > requested.Class {
		out.Class = requested.Class
	}
	if out.BandwidthKbs > requested.BandwidthKbs {
		out.BandwidthKbs = requested.BandwidthKbs
	}
	return out
}

// Book tracks reserved bandwidth on one link for admission control.
// CBR reserves its full rate; VBR reserves half (the predictive-service
// discount used by the Xunet scheduler model); best effort reserves
// nothing. The zero value of Book is unusable — use NewBook.
type Book struct {
	capacityKbs uint64
	reserved    uint64
	perVC       sim.Index[uint64] // reservation key -> kb/s; keys ascend
	nextKey     uint32
}

// NewBook returns an admission-control book for a link of the given
// capacity in kb/s.
func NewBook(capacityKbs uint64) *Book {
	return &Book{capacityKbs: capacityKbs}
}

// reservationFor maps a descriptor to the bandwidth it books.
func reservationFor(q QoS) uint64 {
	switch q.Class {
	case CBR:
		return uint64(q.BandwidthKbs)
	case VBR:
		return uint64(q.BandwidthKbs) / 2
	default:
		return 0
	}
}

// ErrAdmission reports that a reservation would oversubscribe the link.
var ErrAdmission = errors.New("qos: admission control rejected reservation")

// Admit books q, returning a key for later release. Best-effort requests
// always succeed with a zero-cost booking.
func (b *Book) Admit(q QoS) (key uint32, err error) {
	need := reservationFor(q)
	if b.reserved+need > b.capacityKbs {
		return 0, fmt.Errorf("%w: need %d kb/s, %d of %d reserved",
			ErrAdmission, need, b.reserved, b.capacityKbs)
	}
	b.nextKey++
	b.reserved += need
	b.perVC.Put(uint64(b.nextKey), need)
	return b.nextKey, nil
}

// Release frees a booking. Releasing an unknown key is a no-op so that
// teardown paths may be idempotent.
func (b *Book) Release(key uint32) {
	if need, ok := b.perVC.Delete(uint64(key)); ok {
		b.reserved -= need
	}
}
