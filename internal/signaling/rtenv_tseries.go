package signaling

import (
	"time"

	"xunet/internal/obs"
	"xunet/internal/obs/tseries"
)

// This file arms continuous telemetry on the real-mode daemon: the same
// tseries.Store the sim testbed scrapes on virtual-time ticks runs here
// off a wall-clock ticker, on the ticker's own goroutine, since the
// registry's read-through metrics read values the actor keeps for any
// reader and the store has its own lock. The scrape also samples Go
// runtime health (heap, goroutines, GC pauses) — the daemon shares its
// machine with the workload, so its own footprint is an operational
// signal in a way the deterministic sim tier's never is.

// EnableTSeries starts wall-clock scraping into a new store and wires
// the MGMT tseries/health queries to it. Call once, after StartReal;
// the ticker stops when the host closes.
func (h *RealHost) EnableTSeries(cfg tseries.Config) *tseries.Store {
	st := tseries.New(cfg)
	rs := obs.NewRuntimeSampler(h.SH.Obs)
	// The daemon's registry names already carry their component prefixes
	// (sighost.*, go.*); runtime metrics registered above are adopted by
	// the store's first scan here.
	st.TrackRegistry("", h.SH.Obs)
	h.Do(func() {
		h.SH.SetViews(map[string]func() string{
			MgmtTSeries: st.Text, MgmtTSeriesJSON: st.JSON,
			MgmtHealth: st.HealthText, MgmtHealthJSON: st.HealthJSON,
		})
	})
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(st.Interval())
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rs.Sample()
				st.Tick(time.Since(h.started))
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
