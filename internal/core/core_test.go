package core

import (
	"math"
	"testing"
	"testing/quick"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

func TestFlowValueType(t *testing.T) {
	f := Flow{Src: "DE", Dst: "US"}
	if f.Reverse() != (Flow{Src: "US", Dst: "DE"}) {
		t.Error("Reverse broken")
	}
	if f.FastHash() != f.Reverse().FastHash() {
		t.Error("FastHash must be symmetric")
	}
	// Usable as map key.
	m := map[Flow]int{f: 1}
	if m[Flow{Src: "DE", Dst: "US"}] != 1 {
		t.Error("map key equality broken")
	}
}

func TestFastHashSpreads(t *testing.T) {
	countries := geodata.AllCountries()
	seen := map[uint64]int{}
	for _, a := range countries {
		for _, b := range countries {
			seen[Flow{Src: a.Code, Dst: b.Code}.FastHash()&15]++
		}
	}
	n := len(countries) * len(countries)
	for shard, cnt := range seen {
		frac := float64(cnt) / float64(n)
		if frac > 0.25 {
			t.Errorf("shard %d holds %.0f%% of flows", shard, frac*100)
		}
	}
}

func TestFastHashSymmetryProperty(t *testing.T) {
	f := func(a, b string) bool {
		fl := Flow{Src: geodata.Country(a), Dst: geodata.Country(b)}
		return fl.FastHash() == fl.Reverse().FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// build a small analysis by hand:
//
//	DE users: 60 to DE, 25 to NL, 10 to US, 5 to CH
//	GR users: 1 to GR, 6 to DE, 3 to US
func sample() *Analysis {
	a := NewAnalysis()
	a.Add("DE", "DE", 60)
	a.Add("DE", "NL", 25)
	a.Add("DE", "US", 10)
	a.Add("DE", "CH", 5)
	a.Add("GR", "GR", 1)
	a.Add("GR", "DE", 6)
	a.Add("GR", "US", 3)
	return a
}

func TestRegionConfinement(t *testing.T) {
	a := sample()
	inC, inEU, inEur, flows := a.RegionConfinement(EU28Origin)
	if flows != 110 {
		t.Fatalf("flows = %d", flows)
	}
	// In-country: 60 (DE) + 1 (GR) = 61/110.
	if math.Abs(inC-100*61.0/110) > 1e-9 {
		t.Errorf("inCountry = %f", inC)
	}
	// In EU28: 60+25+1+6 = 92/110.
	if math.Abs(inEU-100*92.0/110) > 1e-9 {
		t.Errorf("inEU28 = %f", inEU)
	}
	// In Europe: +5 CH = 97/110.
	if math.Abs(inEur-100*97.0/110) > 1e-9 {
		t.Errorf("inEurope = %f", inEur)
	}
}

func TestRegionConfinementEmpty(t *testing.T) {
	a := NewAnalysis()
	inC, inEU, inEur, flows := a.RegionConfinement(nil)
	if inC != 0 || inEU != 0 || inEur != 0 || flows != 0 {
		t.Error("empty analysis must return zeros")
	}
}

func TestConfinementByCountry(t *testing.T) {
	a := sample()
	rows := a.ConfinementByCountry()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Country != "DE" || rows[0].Flows != 100 {
		t.Errorf("first row = %+v", rows[0])
	}
	if math.Abs(rows[0].InCountry-60) > 1e-9 {
		t.Errorf("DE InCountry = %f", rows[0].InCountry)
	}
	if rows[1].Country != "GR" || math.Abs(rows[1].InCountry-10) > 1e-9 {
		t.Errorf("GR row = %+v", rows[1])
	}
	// Germany (big infra) confines more than Greece — the paper's
	// correlation.
	if rows[0].InCountry <= rows[1].InCountry {
		t.Error("DE must confine more than GR")
	}
}

func TestContinentEdges(t *testing.T) {
	a := sample()
	edges := a.ContinentEdges()
	// Origins: EU 28 only (both DE and GR are EU28).
	var euToEU, euToNA, euToRest float64
	for _, e := range edges {
		if e.From != "EU 28" {
			t.Fatalf("unexpected origin %q", e.From)
		}
		switch e.To {
		case "EU 28":
			euToEU = e.Percent
		case "N. America":
			euToNA = e.Percent
		case "Rest of Europe":
			euToRest = e.Percent
		}
	}
	if math.Abs(euToEU-100*92.0/110) > 1e-9 {
		t.Errorf("EU->EU = %f", euToEU)
	}
	if math.Abs(euToNA-100*13.0/110) > 1e-9 {
		t.Errorf("EU->NA = %f", euToNA)
	}
	if math.Abs(euToRest-100*5.0/110) > 1e-9 {
		t.Errorf("EU->RoE = %f", euToRest)
	}
	// Percentages per origin must sum to 100.
	var sum float64
	for _, e := range edges {
		sum += e.Percent
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("percent sum = %f", sum)
	}
}

func TestDestContinents(t *testing.T) {
	a := sample()
	edges := a.DestContinents(func(c geodata.Country) bool { return c == "GR" })
	if len(edges) != 2 {
		t.Fatalf("edges = %+v", edges)
	}
	// GR: 7 to EU28 (GR+DE), 3 to US.
	if edges[0].To != "EU 28" || math.Abs(edges[0].Percent-70) > 1e-9 {
		t.Errorf("first = %+v", edges[0])
	}
	if edges[1].To != "N. America" || math.Abs(edges[1].Percent-30) > 1e-9 {
		t.Errorf("second = %+v", edges[1])
	}
}

func TestCountryEdges(t *testing.T) {
	a := sample()
	edges := a.CountryEdges(EU28Origin)
	// Ordered by origin, then descending count.
	if edges[0].From != "DE" || edges[0].To != "DE" || edges[0].Count != 60 {
		t.Errorf("first = %+v", edges[0])
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].From == edges[i-1].From && edges[i].Count > edges[i-1].Count {
			t.Error("counts not descending within origin")
		}
	}
	only := a.CountryEdges(func(c geodata.Country) bool { return c == "DE" })
	for _, e := range only {
		if e.From != "DE" {
			t.Errorf("filter leaked origin %s", e.From)
		}
	}
}

func TestTopDestinations(t *testing.T) {
	a := sample()
	top := a.TopDestinations(2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].To != "DE" || top[0].Count != 66 {
		t.Errorf("top dest = %+v", top[0])
	}
	var pctAll float64
	for _, e := range a.TopDestinations(0) {
		pctAll += e.Percent
	}
	if math.Abs(pctAll-100) > 1e-9 {
		t.Errorf("all destinations pct sum = %f", pctAll)
	}
}

func TestUnknownTracking(t *testing.T) {
	a := NewAnalysis()
	a.Add("DE", "DE", 5)
	a.AddUnknown(3)
	if a.Total() != 8 || a.Unknown() != 3 {
		t.Errorf("total=%d unknown=%d", a.Total(), a.Unknown())
	}
}

func TestAnalyzeJoinsGeolocation(t *testing.T) {
	// Dataset: two tracking rows to IP 1 (DE) and one clean row.
	ds := &classify.Dataset{FQDNs: classify.NewInterner()}
	ds.Countries = []geodata.Country{"GR"}
	id := ds.FQDNs.ID("t.example.com")
	ds.Store = classify.StoreOf(
		classify.Row{FQDN: id, IP: 1, Class: classify.ClassABP, Country: 0},
		classify.Row{FQDN: id, IP: 1, Class: classify.ClassSemiKeyword, Country: 0},
		classify.Row{FQDN: id, IP: 2, Class: classify.ClassClean, Country: 0},
		classify.Row{FQDN: id, IP: 9, Class: classify.ClassABP, Country: 0}, // unlocatable
	)
	svc := geo.Static{ServiceName: "s", Locations: map[netsim.IP]geo.Location{
		1: {Country: "DE", Continent: geodata.EU28},
	}}
	a := Analyze(ds, svc)
	if a.Total() != 3 {
		t.Errorf("total = %d (clean row must be excluded)", a.Total())
	}
	if a.Unknown() != 1 {
		t.Errorf("unknown = %d", a.Unknown())
	}
	inC, inEU, _, flows := a.RegionConfinement(nil)
	if flows != 2 || inC != 0 || inEU != 100 {
		t.Errorf("confinement = %f %f flows=%d", inC, inEU, flows)
	}
}

// analyzeBenchDataset synthesizes a multi-chunk columnar dataset with a
// realistic tracking share for the Analyze benchmark. Rows arrive in
// per-user capture blocks, as the merger appends them: a user's
// country is constant across their block, so the Country column is
// run-heavy — the shape every real merged dataset has.
func analyzeBenchDataset(rows int) (*classify.Dataset, geo.Service) {
	ds := &classify.Dataset{FQDNs: classify.NewInterner()}
	ds.Countries = []geodata.Country{"DE", "ES", "GR", "US"}
	id := ds.FQDNs.ID("t.example.com")
	st := classify.NewMemStore()
	const captureRows = 500 // one user's requests, appended contiguously
	for i := 0; i < rows; i++ {
		user := i / captureRows
		r := classify.Row{FQDN: id, IP: netsim.IP(1 + i%16), Country: uint8(user % 4)}
		if i%3 != 0 {
			r.Class = classify.ClassABP
		}
		st.Append(r)
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
	return ds, geo.Static{ServiceName: "bench", Locations: locs}
}

// BenchmarkAnalyze measures the chunk-parallel columnar join of
// tracking rows with a geolocation service (the substrate under every
// §4–§6 experiment). The scan shards over column chunks; on a
// single-core runner it degenerates to the sequential path.
func BenchmarkAnalyze(b *testing.B) {
	ds, svc := analyzeBenchDataset(200_000)
	b.ResetTimer()
	var a *Analysis
	for i := 0; i < b.N; i++ {
		a = Analyze(ds, svc)
	}
	b.ReportMetric(float64(a.Total()), "flows")
}

// analyzeBenchSpill is analyzeBenchDataset's disk-backed sibling: the
// same 200k-row shape streamed into a spilled store, so the benchmark
// exercises the real pread + decode path the pushdown targets.
func analyzeBenchSpill(b *testing.B, rows int) (*classify.Dataset, geo.Service) {
	b.Helper()
	ds, svc := analyzeBenchDataset(rows)
	sink, err := classify.NewMemStoreSpilled(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ds.EachRow(func(_ int, r classify.Row) { sink.Append(r) })
	if err := sink.Seal(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sink.Close() })
	ds.Store = sink
	return ds, svc
}

// BenchmarkPushdownAnalyze measures the decode-free join over the
// spill store: pushdown runs the projection kernel (zone/class
// pruning, per-run country resolution, per-distinct-IP geolocation)
// over the compressed spill file.
func BenchmarkPushdownAnalyze(b *testing.B) {
	b.Run("pushdown", func(b *testing.B) {
		ds, svc := analyzeBenchSpill(b, 200_000)
		b.ResetTimer()
		var a *Analysis
		for i := 0; i < b.N; i++ {
			a = Analyze(ds, svc)
		}
		b.ReportMetric(float64(a.Total()), "flows")
	})
}
