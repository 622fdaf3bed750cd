package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// tiny keeps the benchmark's own tests to seconds.
var tiny = size{Scale: 0.02, Visits: 20}

func tinyConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 3, seconds: 1, size: tiny,
		dataDir: filepath.Join(t.TempDir(), "data")}
}

// TestLedgerComplete is the ledger's completeness gate: on every
// workload the layer spans must cover at least 90% of the traced wall
// time, so the ledger cannot quietly stop adding up.
func TestLedgerComplete(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"batch", "ingest", "cluster"} {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			ref, err := cfg.reference(ctx)
			if err != nil {
				t.Fatal(err)
			}
			in, err := buildInputs(ctx, cfg.seed, cfg.size)
			if err != nil {
				t.Fatal(err)
			}
			l, err := cfg.trace(ctx, in, ref)
			if err != nil {
				t.Fatal(err)
			}
			wall, un := l.Wall().Seconds(), l.Unattributed().Seconds()
			if wall <= 0 || un > 0.10*wall || un < 0 {
				t.Errorf("unattributed %.4fs of traced wall %.4fs (limit 10%%)", un, wall)
			}
			for _, name := range perLayerTimes[2:] {
				if l.Seconds(name) <= 0 {
					t.Errorf("layer metric %s was never booked", name)
				}
			}
		})
	}
}

// TestPassesCheckAnswers runs one untraced pass of each workload: the
// answers must match the reference, and the end-to-end figures be
// positive.
func TestPassesCheckAnswers(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"batch", "ingest", "cluster"} {
		t.Run(wl, func(t *testing.T) {
			cfg := tinyConfig(t, wl)
			ref, err := cfg.reference(ctx)
			if err != nil {
				t.Fatal(err)
			}
			in, err := buildInputs(ctx, cfg.seed, cfg.size)
			if err != nil {
				t.Fatal(err)
			}
			r, err := cfg.pass(ctx, in, ref, true)
			if err != nil {
				t.Fatal(err)
			}
			if r.events != in.nEvents || r.intake <= 0 || r.answer <= 0 || r.attempted < 1 || r.failed != 0 {
				t.Errorf("pass %+v over %d events", r, in.nEvents)
			}
		})
	}
}

// TestPassRejectsWrongAnswer feeds a corrupted reference: the pass must
// fail instead of producing numbers.
func TestPassRejectsWrongAnswer(t *testing.T) {
	ctx := context.Background()
	cfg := tinyConfig(t, "batch")
	ref, err := cfg.reference(ctx)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(ctx, cfg.seed, cfg.size)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]string(nil), ref...)
	bad[len(bad)/2] = "0"
	if _, err := cfg.pass(ctx, in, bad, true); err == nil {
		t.Fatal("a pass against a wrong reference succeeded")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input")
	}
}

func TestGrowthExponent(t *testing.T) {
	xs := []float64{0.02, 0.05, 0.2}
	for _, k := range []float64{0, 1, 2} {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3 * math.Pow(x, k)
		}
		if got := growthExponent(xs, ys); math.Abs(got-k) > 1e-9 {
			t.Errorf("exponent of x^%v = %v", k, got)
		}
	}
}
