package cluster

import (
	"fmt"
	"net/http"

	"crossborder/internal/classify"
)

// MetricsHandler returns the merge tier's Prometheus-style plain-text
// metrics surface (same exposition format as the collector's /metrics):
// registry membership by liveness state, cumulative liveness
// transitions, fan-in re-merge count, and the process-wide projection
// scan counters (chunks scanned, and chunks pruned by zone map or class
// bitmap). fanin may be nil when the caller runs a registry without a
// merge tier.
func MetricsHandler(reg *Registry, fanin *Fanin) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		counter := func(name, help string, v int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			fmt.Fprintf(w, "%s %d\n", name, v)
		}
		gauge := func(name, help string, v float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			fmt.Fprintf(w, "%s %g\n", name, v)
		}
		var alive, suspect, dead int
		for _, m := range reg.Members() {
			switch m.State {
			case StateAlive:
				alive++
			case StateSuspect:
				suspect++
			case StateDead:
				dead++
			}
		}
		gauge("mergerd_members_alive", "Registry members with on-schedule heartbeats.", float64(alive))
		gauge("mergerd_members_suspect", "Registry members with an overdue heartbeat.", float64(suspect))
		gauge("mergerd_members_dead", "Registry members past the dead window.", float64(dead))
		toAlive, toSuspect, toDead := reg.Transitions()
		counter("mergerd_member_transitions_alive_total", "Members observed recovering to alive.", int64(toAlive))
		counter("mergerd_member_transitions_suspect_total", "Members observed turning suspect.", int64(toSuspect))
		counter("mergerd_member_transitions_dead_total", "Members observed turning dead.", int64(toDead))
		if fanin != nil {
			counter("mergerd_remerges_total", "Merged snapshots published by the fan-in tier.", int64(fanin.Remerges()))
			ready := 0.0
			if fanin.Ready() == nil {
				ready = 1
			}
			gauge("mergerd_ready", "1 once the merged view covers every expected shard.", ready)
			counter("mergerd_breaker_trips_total", "Shard circuits opened after consecutive pull failures.", int64(fanin.BreakerTrips()))
			counter("mergerd_breaker_probes_total", "Half-open probes admitted to test shard recovery.", int64(fanin.BreakerProbes()))
			var open, stale int
			for _, h := range fanin.Health() {
				if h.Breaker != "closed" {
					open++
				}
				if h.Stale {
					stale++
				}
			}
			gauge("mergerd_breaker_open", "Shards whose circuit is currently open or probing.", float64(open))
			gauge("mergerd_stale_shards", "Shards served from a cached export past the staleness window.", float64(stale))
		}
		ss := classify.ReadScanStats()
		counter("mergerd_scan_chunks_total", "Chunks offered to projection scan kernels.", ss.ChunksScanned)
		counter("mergerd_scan_chunks_skipped_total", "Chunks pruned without loading a column (zone map / class bitmap).", ss.ChunksSkipped)
	})
}
