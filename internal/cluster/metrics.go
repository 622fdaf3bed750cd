package cluster

import (
	"net/http"

	"crossborder/internal/ingest"
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
		m := ingest.NewExposition(w)
		var alive, suspect, dead int
		for _, mem := range reg.Members() {
			switch mem.State {
			case StateAlive:
				alive++
			case StateSuspect:
				suspect++
			case StateDead:
				dead++
			}
		}
		m.Gauge("mergerd_members_alive", "Registry members with on-schedule heartbeats.", float64(alive))
		m.Gauge("mergerd_members_suspect", "Registry members with an overdue heartbeat.", float64(suspect))
		m.Gauge("mergerd_members_dead", "Registry members past the dead window.", float64(dead))
		toAlive, toSuspect, toDead := reg.Transitions()
		m.Counter("mergerd_member_transitions_alive_total", "Members observed recovering to alive.", int64(toAlive))
		m.Counter("mergerd_member_transitions_suspect_total", "Members observed turning suspect.", int64(toSuspect))
		m.Counter("mergerd_member_transitions_dead_total", "Members observed turning dead.", int64(toDead))
		if fanin != nil {
			m.Counter("mergerd_remerges_total", "Merged snapshots published by the fan-in tier.", int64(fanin.Remerges()))
			ready := 0.0
			if fanin.Ready() == nil {
				ready = 1
			}
			m.Gauge("mergerd_ready", "1 once the merged view covers every expected shard.", ready)
			m.Counter("mergerd_breaker_trips_total", "Shard circuits opened after consecutive pull failures.", int64(fanin.BreakerTrips()))
			m.Counter("mergerd_breaker_probes_total", "Half-open probes admitted to test shard recovery.", int64(fanin.BreakerProbes()))
			var open, stale int
			for _, h := range fanin.Health() {
				if h.Breaker != "closed" {
					open++
				}
				if h.Stale {
					stale++
				}
			}
			m.Gauge("mergerd_breaker_open", "Shards whose circuit is currently open or probing.", float64(open))
			m.Gauge("mergerd_stale_shards", "Shards served from a cached export past the staleness window.", float64(stale))
		}
		m.ScanCounters("mergerd")
	})
}
