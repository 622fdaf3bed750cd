// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment has one entry point returning structured
// rows plus a Render method producing the plain-text artifact; the
// package's tests assert that the measured numbers stay inside bands
// around the paper's values, so a calibration regression in the scenario
// breaks `go test`.
package experiments

import (
	"sync"

	"crossborder/internal/core"
	"crossborder/internal/scenario"
)

// Suite caches the expensive joint analyses over one scenario, plus one
// computed Artifact per registered experiment (see registry.go).
type Suite struct {
	S *scenario.Scenario

	// Progress, when non-nil, receives PhaseEvent-style progress from
	// long experiment runners — currently Table 8's sixteen ISP-day
	// NetFlow syntheses, reported under the phase name "table8" with
	// Done counting finished ISP-days. Set it before running experiments;
	// delivery is serialized (one runner emits at a time) and progress
	// never changes any artifact.
	Progress func(scenario.PhaseEvent)

	once struct {
		flows, locality sync.Once
	}
	flows []*core.Analysis // truth, IPmap, MaxMind
	// table5 and table6 share one locality engine (see locality.go).
	table5 Table5Result
	table6 Table6Result

	cellsMu sync.Mutex
	cells   map[string]*artifactCell
}

// NewSuite wraps a built scenario.
func NewSuite(s *scenario.Scenario) *Suite {
	return &Suite{S: s}
}

// NewSuiteSeeded wraps a scenario with the three geolocation joins
// already computed. Its one non-test caller is ingest.Snapshot, which
// derives the flow maps from its rows itself (so /v1/stats needs no
// Suite) and hands those same analyses over here, so a snapshot joins
// once whichever asks first. The seeded analyses must equal what
// core.Analyze would return over s.Dataset for each service.
func NewSuiteSeeded(s *scenario.Scenario, truth, ipmap, maxmind *core.Analysis) *Suite {
	su := NewSuite(s)
	su.flows = []*core.Analysis{truth, ipmap, maxmind}
	su.once.flows.Do(func() {})
	return su
}

// Precompute runs the three geolocation joins (truth, IPmap, MaxMind)
// as one core.Join: a single projected scan that shards over chunks
// internally and locates each distinct IP once per service. Safe to
// call multiple times and concurrently with the accessors below, which
// all wait on the same sync.Once.
func (su *Suite) Precompute() {
	su.once.flows.Do(func() {
		su.flows = core.Join(su.S.Dataset, su.S.FlowServices())
	})
}

// TruthAnalysis joins all tracking flows with ground-truth geolocation.
func (su *Suite) TruthAnalysis() *core.Analysis {
	su.Precompute()
	return su.flows[0]
}

// IPMapAnalysis joins all tracking flows with RIPE IPmap-style
// geolocation — the paper's headline configuration.
func (su *Suite) IPMapAnalysis() *core.Analysis {
	su.Precompute()
	return su.flows[1]
}

// MaxMindAnalysis joins all tracking flows with the commercial database —
// the Fig 7(a) counterfactual.
func (su *Suite) MaxMindAnalysis() *core.Analysis {
	su.Precompute()
	return su.flows[2]
}
