package scenario

import (
	"reflect"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geodata"
)

// TestSummarizeCountryFlows pins Summary.CountryFlows to its definition:
// for every origin country, the number of tracking rows from that
// country (located or not), with zero counts left out. It holds on the
// wide build and on a compressed multi-chunk build.
func TestSummarizeCountryFlows(t *testing.T) {
	p := Params{Seed: 1, Scale: 0.02, VisitsPerUser: 10}
	wide := Build(p)
	p.RowSink = func() (*classify.MemStore, error) { return classify.NewMemStoreCompressed(300), nil }
	comp := Build(p)
	for _, v := range []struct {
		name string
		s    *Scenario
	}{{"wide", wide}, {"compressed", comp}} {
		want := make(map[geodata.Country]int64)
		v.s.Dataset.EachRow(func(_ int, r classify.Row) {
			if r.Class.IsTracking() {
				want[v.s.Dataset.Countries[r.Country]]++
			}
		})
		if len(want) < 2 {
			t.Fatalf("%s: tracking rows from %d countries; the test needs several", v.name, len(want))
		}
		if got := Summarize(v.s).CountryFlows; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: CountryFlows = %v, want %v", v.name, got, want)
		}
	}
}
