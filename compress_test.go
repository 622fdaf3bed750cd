package crossborder_test

import (
	"context"
	"testing"

	"crossborder"
)

// TestCompressedStoresMatchGolden is the codec's study-level contract:
// at the golden configuration (seed 1 / scale 0.05) the compressed
// in-memory store and the spill store must render all 20 experiment
// artifacts byte-identically to the wide in-memory study, and the
// spill file must be at least 3x smaller than the raw fixed-width
// column layout.
func TestCompressedStoresMatchGolden(t *testing.T) {
	build := func(opts ...crossborder.Option) *crossborder.Study {
		t.Helper()
		opts = append([]crossborder.Option{
			crossborder.WithSeed(1),
			crossborder.WithScale(0.05),
			crossborder.WithVisitsPerUser(40),
		}, opts...)
		st, err := crossborder.New(context.Background(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	golden := build()
	want := golden.RenderAll()
	ids := crossborder.ExperimentIDs()

	for _, variant := range []struct {
		name string
		opts []crossborder.Option
	}{
		{"mem-compressed", []crossborder.Option{crossborder.WithCompression(true)}},
		{"spill-compressed", []crossborder.Option{crossborder.WithRowStore(crossborder.DiskRowStore(""))}},
	} {
		st := build(variant.opts...)
		got := st.RenderAll()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: artifact %s differs from the uncompressed golden rendering",
					variant.name, ids[i])
			}
		}
		if variant.name == "spill-compressed" {
			sp := st.Scenario().Dataset.Store
			raw, size := sp.RawSize(), sp.Footprint().CompressedBytes
			t.Logf("spill file: %d bytes for %d raw (%.2fx, %.2f B/row over %d rows)",
				size, raw, float64(raw)/float64(size), float64(size)/float64(sp.Len()), sp.Len())
			if size*3 > raw {
				t.Errorf("spill compression ratio %.2fx is below the 3x floor (%d of %d raw bytes)",
					float64(raw)/float64(size), size, raw)
			}
		}
		if err := st.Close(); err != nil {
			t.Errorf("%s: Close: %v", variant.name, err)
		}
	}
}
