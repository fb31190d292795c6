// Command sighost runs the signaling entity as a real daemon serving
// the application-signaling RPC protocol over TCP — the deployable form
// of the paper's user-space design decision (§5.1): "code in user space
// is far easier to develop and modify".
//
// A standalone daemon serves local calls only; with -peer-net it joins
// a mesh of sighosts over the batched UDP carrier (internal/rtnet), with
// the reliable peer channel on, and serves cross-host calls too. (The
// full multi-router fabric still runs inside the simulation — see
// cmd/xunetsim.) Try it with cmd/sigdemo:
//
//	sighost -listen 127.0.0.1:3177 -atm-addr mh.rt
//	sigdemo -sighost 127.0.0.1:3177
//
// Two peered daemons on one machine:
//
//	sighost -listen 127.0.0.1:3177 -atm-addr a.rt \
//	    -peer-net 127.0.0.1:4177 -peer b.rt=127.0.0.1:4178
//	sighost -listen 127.0.0.1:3178 -atm-addr b.rt \
//	    -peer-net 127.0.0.1:4178 -peer a.rt=127.0.0.1:4177
//
// Live telemetry (counters, call-setup latency percentiles, recent trace
// events) can be scraped in-band with cmd/xunetstat:
//
//	xunetstat -sighost 127.0.0.1:3177
//
// With -metrics, the daemon also serves the registry — including Go
// runtime health (heap, goroutines, GC pauses) — in the OpenMetrics
// text format, and arms the wall-clock time-series scrape behind the
// MGMT tseries/health queries:
//
//	sighost -metrics 127.0.0.1:9177
//	curl http://127.0.0.1:9177/metrics
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"xunet/internal/atm"
	"xunet/internal/obs/tseries"
	"xunet/internal/signaling"
)

// peerList collects repeated -peer "atmaddr=udpaddr" flags.
type peerList []string

func (p *peerList) String() string     { return strings.Join(*p, ",") }
func (p *peerList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	listen := flag.String("listen", "127.0.0.1:3177", "TCP address to serve the signaling RPC protocol on")
	addrStr := flag.String("atm-addr", "mh.rt", "this signaling entity's ATM address")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 disables)")
	metrics := flag.String("metrics", "", "HTTP address for the OpenMetrics endpoint (empty disables)")
	scrape := flag.Duration("scrape", time.Second, "time-series scrape interval (with -metrics)")
	peerNet := flag.String("peer-net", "", "UDP address for the inter-sighost carrier (empty disables peering)")
	peerUnbatched := flag.Bool("peer-unbatched", false, "disable sendmmsg/recvmmsg batching on the carrier")
	var peers peerList
	flag.Var(&peers, "peer", "peer route as atmaddr=udpaddr (repeatable; requires -peer-net)")
	flag.Parse()

	h, err := signaling.StartReal(atm.Addr(*addrStr), *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sighost:", err)
		os.Exit(1)
	}
	defer h.Close()
	fmt.Printf("sighost: signaling entity %q serving on %s\n", *addrStr, h.ListenAddr())

	if *peerNet == "" && len(peers) > 0 {
		fmt.Fprintln(os.Stderr, "sighost: -peer requires -peer-net")
		os.Exit(1)
	}
	if *peerNet != "" {
		if err := h.EnablePeerNet(signaling.PeerNetConfig{Listen: *peerNet, Unbatched: *peerUnbatched}); err != nil {
			fmt.Fprintln(os.Stderr, "sighost: peer-net:", err)
			os.Exit(1)
		}
		// The carrier is UDP, which may lose or duplicate a datagram, so
		// peers exchange signaling over the reliable channel.
		h.EnableReliability(signaling.DefaultRelConfig())
		mode := "batched"
		if !h.PeerNet().Batched() {
			mode = "per-message"
		}
		fmt.Printf("sighost: peer carrier on %s (%s sends, reliable channel)\n", h.PeerNet().Addr(), mode)
		for _, spec := range peers {
			name, udp, ok := strings.Cut(spec, "=")
			if !ok || name == "" || udp == "" {
				fmt.Fprintf(os.Stderr, "sighost: bad -peer %q, want atmaddr=udpaddr\n", spec)
				os.Exit(1)
			}
			if err := h.AddPeer(atm.Addr(name), udp); err != nil {
				fmt.Fprintf(os.Stderr, "sighost: peer %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Printf("sighost: peer %s via %s\n", name, udp)
		}
	}

	if *metrics != "" {
		h.EnableTSeries(tseries.Config{Interval: *scrape})
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			fmt.Fprint(w, h.OpenMetrics())
		})
		srv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "sighost: metrics:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("sighost: OpenMetrics on http://%s/metrics (scrape %v)\n", *metrics, *scrape)
	}

	if *statsEvery > 0 {
		go func() {
			// The registry reads atomics, the lists' sizes among them,
			// so a snapshot is safe off the actor.
			for range time.Tick(*statsEvery) {
				var counts []string
				for _, c := range h.SH.Obs.Snapshot().Counters {
					if strings.HasPrefix(c.Name, "sighost.") {
						counts = append(counts, fmt.Sprintf("%s=%d", c.Name, c.Value))
					}
				}
				fmt.Printf("sighost: stats %s\n", strings.Join(counts, " "))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nsighost: shutting down")
}
