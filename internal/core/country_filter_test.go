package core

import (
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// countryFilterDataset builds a compressed multi-chunk store whose
// Country column segregates by chunk (per-user capture blocks shorter
// than the chunk size), so zone maps genuinely exclude chunks for most
// country-equality predicates.
func countryFilterDataset(t *testing.T) (*classify.Dataset, geo.Service) {
	t.Helper()
	ds := &classify.Dataset{FQDNs: classify.NewInterner()}
	ds.Countries = []geodata.Country{"DE", "ES", "GR", "US"}
	id := ds.FQDNs.ID("t.example.com")
	sink := classify.NewMemStoreCompressed(256)
	const captureRows = 256 // one user per chunk: tight per-chunk country ranges
	for i := 0; i < 4096; i++ {
		user := i / captureRows
		r := classify.Row{FQDN: id, IP: netsim.IP(1 + i%16), Country: uint8(user % 4)}
		if i%3 != 0 {
			r.Class = classify.ClassABP
		}
		sink.Append(r)
	}
	st, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}
	ds.Store = st
	locs := make(map[netsim.IP]geo.Location, 16)
	for i := 0; i < 16; i++ {
		loc := geo.Location{Country: "DE", Continent: geodata.EU28}
		if i%5 == 0 {
			loc = geo.Location{Country: "US", Continent: geodata.NorthAmerica}
		}
		locs[netsim.IP(1+i)] = loc
	}
	return ds, geo.Static{ServiceName: "test", Locations: locs}
}

// TestAnalyzeWhereCountryEquality pins the pruned projection kernel to
// the row oracle: for every country (including one the dataset never
// saw), the zone-map-pruned scan must produce exactly the analysis of
// the equivalent row filter.
func TestAnalyzeWhereCountryEquality(t *testing.T) {
	ds, svc := countryFilterDataset(t)
	for _, c := range []geodata.Country{"DE", "ES", "GR", "US", "FR"} {
		got := AnalyzeWhere(ds, svc, CountryEquals(c))
		want := rowAnalyze(ds, svc, func(r classify.Row) bool {
			return ds.Countries[r.Country] == c
		})
		if !got.Equal(want) {
			t.Errorf("country=%s: pruned path disagrees with row oracle (got %d flows, want %d)",
				c, got.Total(), want.Total())
		}
	}
}

// TestAnalyzeWhereUnknownCountryEmpty: a country absent from the
// dataset's interned table returns the empty analysis without scanning.
func TestAnalyzeWhereUnknownCountryEmpty(t *testing.T) {
	ds, svc := countryFilterDataset(t)
	a := AnalyzeWhere(ds, svc, CountryEquals("JP"))
	if a.Total() != 0 || a.Unknown() != 0 {
		t.Errorf("unknown country: total=%d unknown=%d, want empty", a.Total(), a.Unknown())
	}
}
