package crossborder_test

import (
	"context"
	"flag"
	"os"
	"testing"

	"crossborder"
	"crossborder/internal/experiments"
)

var updateExperimentsMD = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the experiment registry")

// TestNewCancelled: a dead context must abort New before any work.
func TestNewCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := crossborder.New(ctx, crossborder.WithScale(0.02))
	if err != context.Canceled {
		t.Fatalf("New on cancelled ctx = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatal("cancelled New must return a nil study")
	}
}

// TestNewProgressOption checks the option plumbing end to end: progress
// events arrive through the public API for every pipeline phase.
func TestNewProgressOption(t *testing.T) {
	seen := make(map[crossborder.Phase]bool)
	_, err := crossborder.New(context.Background(),
		crossborder.WithSeed(5),
		crossborder.WithScale(0.02),
		crossborder.WithVisitsPerUser(8),
		crossborder.WithWorkers(2),
		crossborder.WithProgress(func(ev crossborder.PhaseEvent) { seen[ev.Phase] = true }))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range crossborder.Phases() {
		if !seen[ph] {
			t.Errorf("no progress event for phase %s", ph)
		}
	}
}

// TestExperimentRegistryExposed covers the public registry surface the
// cmd tools are built on.
func TestExperimentRegistryExposed(t *testing.T) {
	ids := crossborder.ExperimentIDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(ids))
	}
	if len(crossborder.Experiments()) != len(ids) {
		t.Fatal("Experiments() and ExperimentIDs() disagree")
	}
	exp, ok := crossborder.LookupExperiment("FIG7")
	if !ok || exp.ID != "fig7" {
		t.Fatalf("LookupExperiment(FIG7) = (%q, %v)", exp.ID, ok)
	}
	if _, ok := crossborder.LookupExperiment("fig99"); ok {
		t.Error("LookupExperiment must reject unknown ids")
	}
}

// TestStudyArtifactAPI runs one registry experiment through the public
// Study surface and checks the encodings exist.
func TestStudyArtifactAPI(t *testing.T) {
	st := tinyStudy(t)
	a, err := st.Artifact(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == "" {
		t.Error("empty render")
	}
	if raw, err := a.JSON(); err != nil || len(raw) == 0 {
		t.Errorf("JSON: %v (%d bytes)", err, len(raw))
	}
	if raw, err := a.CSV(); err != nil || len(raw) == 0 {
		t.Errorf("CSV: %v (%d bytes)", err, len(raw))
	}
}

// TestExperimentsMarkdownInSync keeps EXPERIMENTS.md generated: the
// committed file must match the registry's MarkdownIndex output.
// Regenerate with `go test -run TestExperimentsMarkdownInSync . -update`.
func TestExperimentsMarkdownInSync(t *testing.T) {
	want := experiments.MarkdownIndex()
	if *updateExperimentsMD {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("EXPERIMENTS.md missing (regenerate with -update): %v", err)
	}
	if string(got) != want {
		t.Error("EXPERIMENTS.md is stale; regenerate with: go test -run TestExperimentsMarkdownInSync . -update")
	}
}
