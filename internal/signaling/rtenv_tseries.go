package signaling

import (
	"time"

	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
)

// This file arms continuous telemetry on the real-mode daemon: the same
// tseries.Store the sim testbed scrapes on virtual-time ticks runs here
// off a wall-clock ticker. The store is the actor's: the ticker posts
// each scrape to the actor, so the registry's read-through Funcs see the
// actor's state, and the MGMT queries read the store there. The scrape also
// samples Go runtime health (heap, goroutines, GC pauses) — the daemon
// shares its machine with the workload, so its own footprint is an
// operational signal in a way the deterministic sim tier's never is.

// EnableTSeries starts wall-clock scraping into a new store and wires
// the MGMT tseries/health queries to it. Call once, after StartReal;
// the ticker stops when the host closes. The returned store is the
// actor's: read it through Do.
func (h *RealHost) EnableTSeries(cfg tseries.Config) *tseries.Store {
	st := tseries.New(cfg)
	rs := obs.NewRuntimeSampler(h.SH.Obs)
	// The daemon's registry names already carry their component prefixes
	// (sighost.*, go.*); runtime metrics registered above are adopted by
	// the store's first scan here.
	h.Do(func() {
		st.TrackRegistry("", h.SH.Obs)
		h.SH.SetViews(map[string]func() string{
			MgmtTSeries: st.Text, MgmtTSeriesJSON: st.JSON,
			MgmtHealth: st.HealthText, MgmtHealthJSON: st.HealthJSON,
		})
	})
	tick := func() { st.Tick(time.Since(h.started)) }
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(st.Interval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				// The sampler sets registry gauges, which any goroutine
				// may, so the runtime read stays off the actor.
				rs.Sample()
				h.put(input{fn: tick})
			case <-h.quit:
				return
			}
		}
	}()
	return st
}

// OpenMetrics renders the daemon's registry in the OpenMetrics text
// exposition format. Like any snapshot of it, it may run on any
// goroutine.
func (h *RealHost) OpenMetrics() string { return h.SH.Obs.Snapshot().OpenMetrics() }
