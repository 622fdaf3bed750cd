package scenario

import (
	"reflect"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/core"
)

// TestRowStoreEquivalence is the sink-equivalence property at the
// pipeline level: the same world built into the in-memory store, the
// compressed-resident store, and the spill-to-disk store (small chunk
// sizes, forcing many chunks) must
// produce identical dataset statistics and identical core.Analyze flow
// maps under every geolocation service — neither the storage backend
// nor the chunk codec may be visible to any analysis.
func TestRowStoreEquivalence(t *testing.T) {
	p := Params{Seed: 1, Scale: 0.02, VisitsPerUser: 10}
	mem := Build(p)

	dir := t.TempDir()
	variants := []struct {
		name string
		sink func() (*classify.MemStore, error)
	}{
		{"spill-compressed", func() (*classify.MemStore, error) { return classify.NewMemStoreSpilled(dir, 300) }},
		{"mem-compressed", func() (*classify.MemStore, error) { return classify.NewMemStoreCompressed(300), nil }},
	}
	for _, v := range variants {
		p.RowSink = v.sink
		other := Build(p)
		defer other.Dataset.Close()

		if other.Dataset.Store.NumChunks() < 2 {
			t.Fatalf("%s store has %d chunks; the test needs several to mean anything",
				v.name, other.Dataset.Store.NumChunks())
		}

		if hm, hs := datasetHash(mem), datasetHash(other); hm != hs {
			t.Fatalf("dataset hash differs across row stores: mem %x vs %s %x", hm, v.name, hs)
		}
		if sm, ss := classify.ComputeStats(mem.Dataset), classify.ComputeStats(other.Dataset); sm != ss {
			t.Fatalf("DatasetStats differ: mem %+v vs %s %+v", sm, v.name, ss)
		}

		for _, svc := range []struct {
			name string
			a, b *core.Analysis
		}{
			{"truth", core.Analyze(mem.Dataset, mem.Truth), core.Analyze(other.Dataset, other.Truth)},
			{"ipmap", core.Analyze(mem.Dataset, mem.IPMap), core.Analyze(other.Dataset, other.IPMap)},
			{"maxmind", core.Analyze(mem.Dataset, mem.MaxMind), core.Analyze(other.Dataset, other.MaxMind)},
		} {
			if svc.a.Total() != svc.b.Total() || svc.a.Unknown() != svc.b.Unknown() {
				t.Errorf("%s/%s totals differ: (%d,%d) vs (%d,%d)", v.name, svc.name,
					svc.a.Total(), svc.a.Unknown(), svc.b.Total(), svc.b.Unknown())
			}
			if ea, eb := svc.a.CountryEdges(nil), svc.b.CountryEdges(nil); !reflect.DeepEqual(ea, eb) {
				t.Errorf("%s/%s country flow map differs across row stores", v.name, svc.name)
			}
			if ea, eb := svc.a.ContinentEdges(), svc.b.ContinentEdges(); !reflect.DeepEqual(ea, eb) {
				t.Errorf("%s/%s continent flow map differs across row stores", v.name, svc.name)
			}
		}
	}
}
