package crossborder_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"crossborder"
)

var (
	studyOnce sync.Once
	studyVal  *crossborder.Study
)

func tinyStudy(t *testing.T) *crossborder.Study {
	t.Helper()
	studyOnce.Do(func() {
		var err error
		studyVal, err = crossborder.New(context.Background(),
			crossborder.WithSeed(1), crossborder.WithScale(0.04), crossborder.WithVisitsPerUser(25))
		if err != nil {
			t.Fatal(err)
		}
	})
	return studyVal
}

func TestStudyRenderAll(t *testing.T) {
	st := tinyStudy(t)
	artifacts := st.RenderAll()
	if len(artifacts) != 20 {
		t.Fatalf("artifacts = %d, want 20 (Tables 1-9 + Figs 2-12)", len(artifacts))
	}
	for i, a := range artifacts {
		if strings.TrimSpace(a) == "" {
			t.Errorf("artifact %d is empty", i)
		}
	}
	// A few anchors must appear.
	joined := strings.Join(artifacts, "\n")
	for _, want := range []string{
		"Table 1", "Table 2", "Fig 7", "Table 5", "Fig 9",
		"Table 8", "Fig 12", "Table 9",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing artifact %q", want)
		}
	}
}

func TestStudyHeadlineShapes(t *testing.T) {
	st := tinyStudy(t)
	fig7 := st.Fig7()
	if fig7.IPMapEU28() < 70 {
		t.Errorf("IPmap EU28 = %.1f, want the confined headline", fig7.IPMapEU28())
	}
	if fig7.MaxMindEU28() >= fig7.IPMapEU28() {
		t.Error("MaxMind must under-report EU28 confinement")
	}
}

func TestStudyScenarioAccess(t *testing.T) {
	st := tinyStudy(t)
	s := st.Scenario()
	if s == nil || s.Dataset == nil || s.Inventory == nil {
		t.Fatal("scenario accessor broken")
	}
	if len(s.FQDNWeights()) == 0 {
		t.Error("no FQDN weights")
	}
}

func TestStudyDeterminism(t *testing.T) {
	build := func() *crossborder.Study {
		st, err := crossborder.New(context.Background(),
			crossborder.WithSeed(9), crossborder.WithScale(0.02), crossborder.WithVisitsPerUser(8))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := build(), build()
	if a.Table1().Stats != b.Table1().Stats {
		t.Error("same options must reproduce the same study")
	}
}

func TestRenderTable9(t *testing.T) {
	out := crossborder.RenderTable9()
	if !strings.Contains(out, "This work") || !strings.Contains(out, "RIPE IPmap") {
		t.Error("Table 9 transcription incomplete")
	}
}
