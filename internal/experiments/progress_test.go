package experiments

import (
	"context"
	"testing"

	"crossborder/internal/scenario"
)

// TestTable8Progress: the registry's heaviest runner reports its
// sixteen ISP-day syntheses through Suite.Progress — monotone, phase
// "table8", ending at Total — and progress never changes the artifact.
func TestTable8Progress(t *testing.T) {
	su := testSuite(t)
	var events []scenario.PhaseEvent
	su2 := NewSuite(su.S)
	su2.Progress = func(ev scenario.PhaseEvent) { events = append(events, ev) }

	withProg, err := su2.Table8Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 17 {
		t.Fatalf("got %d progress events, want 17 (0/16 .. 16/16)", len(events))
	}
	last := -1
	for i, ev := range events {
		if ev.Phase != "table8" {
			t.Fatalf("event %d phase = %q, want table8", i, ev.Phase)
		}
		if ev.Total != 16 {
			t.Fatalf("event %d total = %d, want 16", i, ev.Total)
		}
		if ev.Done <= last && i > 0 {
			t.Fatalf("event %d done = %d not monotone after %d", i, ev.Done, last)
		}
		last = ev.Done
	}
	if last != 16 {
		t.Fatalf("final done = %d, want 16", last)
	}

	// Progress must not perturb the result.
	plain := su.Table8()
	if len(plain.Reports) != len(withProg.Reports) {
		t.Fatal("progress changed the number of reports")
	}
	for i := range plain.Reports {
		if plain.Reports[i].EU28 != withProg.Reports[i].EU28 ||
			plain.Reports[i].SampledFlows != withProg.Reports[i].SampledFlows {
			t.Fatalf("report %d differs with progress enabled", i)
		}
	}
}

// TestNewSuiteSeeded: pre-seeded geolocation joins short-circuit the
// lazy join and are returned verbatim.
func TestNewSuiteSeeded(t *testing.T) {
	su := testSuite(t)
	truth := su.TruthAnalysis()
	ipmap := su.IPMapAnalysis()
	maxmind := su.MaxMindAnalysis()

	seeded := NewSuiteSeeded(su.S, truth, ipmap, maxmind)
	if seeded.TruthAnalysis() != truth || seeded.IPMapAnalysis() != ipmap || seeded.MaxMindAnalysis() != maxmind {
		t.Fatal("seeded suite recomputed a pre-filled analysis")
	}
}
