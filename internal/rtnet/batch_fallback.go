//go:build !linux || !(amd64 || arm64)

// Portable fallback: no OS batch syscalls, so the carrier runs one
// WriteToUDPAddrPort/ReadFromUDPAddrPort per frame (both alloc-free on
// the netip API). Tx coalescing still applies — frames batch in the
// peer slab and flush together at dispatch boundaries — only the
// kernel-boundary amortization is lost. The stubs below are never
// called (Carrier.batched is constant-false here); they exist so the
// shared code compiles identically on every platform.

package rtnet

// osBatched selects the batched implementation at build time.
const osBatched = false

// txBatch has no per-peer OS state on the fallback path.
type txBatch struct{}

func (p *Peer) osInit() {}

func (p *Peer) osFlush() (int, error) { panic("rtnet: osFlush without OS batch support") }

// rxBatch has no carrier OS state on the fallback path.
type rxBatch struct{}

func (c *Carrier) osCarrierInit() {}

func (c *Carrier) osRecvOnce() (int, error) { panic("rtnet: osRecvOnce without OS batch support") }
