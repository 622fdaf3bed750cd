// Package goldentest is the one golden-parity driver of the tests: the
// batch study at seed 1, scale 0.05 and 40 visits per user, the world
// collectors serve it from, and the per-user upload streams recorded
// from that world, all built once per test process. A test replays
// Events by the route it checks (one collector, a ring of shards, a
// killed and restarted daemon, a cluster under chaos) and hands a
// client of the result to Check, which requires every experiment
// artifact to be byte-identical to the batch study.
package goldentest

import (
	"context"
	"sync"
	"testing"

	"crossborder"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// The golden configuration.
const (
	Seed   = 1
	Scale  = 0.05
	Visits = 40
)

// Golden is the batch reference and the inputs a live route replays.
type Golden struct {
	Study *crossborder.Study
	// Artifacts is Study.RenderAll, in crossborder.ExperimentIDs order.
	Artifacts []string
	World     *scenario.Scenario
	Events    map[int32][]ingest.Event
}

var (
	once    sync.Once
	golden  *Golden
	loadErr error
)

// Options returns the golden configuration's study options followed by
// extra.
func Options(extra ...crossborder.Option) []crossborder.Option {
	return append([]crossborder.Option{
		crossborder.WithSeed(Seed),
		crossborder.WithScale(Scale),
		crossborder.WithVisitsPerUser(Visits),
	}, extra...)
}

// Load returns the process's golden, building it on first use.
func Load(tb testing.TB) *Golden {
	tb.Helper()
	once.Do(func() {
		st, err := crossborder.New(context.Background(), Options()...)
		if err != nil {
			loadErr = err
			return
		}
		world := scenario.BuildWorld(scenario.Params{Seed: Seed, Scale: Scale, VisitsPerUser: Visits})
		golden = &Golden{
			Study:     st,
			Artifacts: st.RenderAll(),
			World:     world,
			Events:    ingest.RecordSimulation(world, Visits, 3),
		}
	})
	if loadErr != nil {
		tb.Fatalf("building the golden study: %v", loadErr)
	}
	return golden
}

// Check fetches every experiment artifact through cl and fails tb for
// each one that differs from the batch study; label names the route.
func (g *Golden) Check(tb testing.TB, cl *ingest.Client, label string) {
	tb.Helper()
	for i, id := range crossborder.ExperimentIDs() {
		text, _, err := cl.Artifact(id)
		if err != nil {
			tb.Fatalf("%s: artifact %s: %v", label, id, err)
		}
		if text != g.Artifacts[i] {
			tb.Errorf("%s: artifact %s differs from the batch study:\n--- %s ---\n%s\n--- batch ---\n%s",
				label, id, label, text, g.Artifacts[i])
		}
	}
}

// CheckStats requires the dataset block of /v1/stats through cl to
// equal the batch study's Table 1.
func (g *Golden) CheckStats(tb testing.TB, cl *ingest.Client, label string) {
	tb.Helper()
	st, err := cl.Stats()
	if err != nil {
		tb.Fatalf("%s: stats: %v", label, err)
	}
	batch := g.Study.Table1().Stats
	if st.Stats.Users != batch.Users ||
		st.Stats.FirstPartySites != batch.FirstPartySites ||
		st.Stats.FirstPartyVisits != batch.FirstPartyVisits ||
		st.Stats.ThirdPartyFQDNs != batch.ThirdPartyFQDNs ||
		st.Stats.ThirdPartyReqs != batch.ThirdPartyReqs {
		tb.Errorf("%s: /v1/stats dataset block %+v, batch Table 1 %+v", label, st.Stats, batch)
	}
}
