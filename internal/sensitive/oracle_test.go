package sensitive

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// The row oracles below are the Fig 9–11 kernels the obvious way: one
// row at a time, every predicate checked per row, straight off the
// appended rows. TestKernelsMatchRowOracle pins the projected kernels
// to them on every store layout.

// rowBuildReport is BuildReport's row oracle.
func rowBuildReport(ds *classify.Dataset, rows []classify.Row, id *Identification) *Report {
	rep := &Report{}
	counts := make(map[webgraph.Topic]int64)
	for _, r := range rows {
		if !r.Class.IsTracking() {
			continue
		}
		rep.AllTrackingFlows++
		cat, ok := id.ByPublisher[ds.Publishers[r.Publisher]]
		if !ok {
			continue
		}
		counts[cat]++
		rep.SensitiveFlows++
	}
	for cat, n := range counts {
		pct := 0.0
		if rep.SensitiveFlows > 0 {
			pct = 100 * float64(n) / float64(rep.SensitiveFlows)
		}
		rep.Shares = append(rep.Shares, CategoryShare{Category: cat, Flows: n, Percent: pct})
	}
	sort.Slice(rep.Shares, func(i, j int) bool {
		if rep.Shares[i].Flows != rep.Shares[j].Flows {
			return rep.Shares[i].Flows > rep.Shares[j].Flows
		}
		return rep.Shares[i].Category < rep.Shares[j].Category
	})
	return rep
}

// rowDestByCategory is DestByCategory's row oracle.
func rowDestByCategory(ds *classify.Dataset, rows []classify.Row, id *Identification, svc geo.Service) []DestEdge {
	type key struct {
		cat    webgraph.Topic
		region string
	}
	counts := make(map[key]int64)
	totals := make(map[webgraph.Topic]int64)
	for _, r := range rows {
		if !r.Class.IsTracking() || !geodata.IsEU28(ds.Countries[r.Country]) {
			continue
		}
		cat, ok := id.ByPublisher[ds.Publishers[r.Publisher]]
		if !ok {
			continue
		}
		loc, ok := svc.Locate(r.IP)
		if !ok {
			continue
		}
		counts[key{cat, loc.Continent.String()}]++
		totals[cat]++
	}
	out := make([]DestEdge, 0, len(counts))
	for k, n := range counts {
		out = append(out, DestEdge{
			Category: k.cat,
			Region:   k.region,
			Flows:    n,
			Percent:  100 * float64(n) / float64(totals[k.cat]),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Category != out[j].Category {
			return out[i].Category < out[j].Category
		}
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// rowCountryLeakage is CountryLeakage's row oracle.
func rowCountryLeakage(ds *classify.Dataset, rows []classify.Row, id *Identification, svc geo.Service) []CountryLeak {
	type acc struct{ total, outside int64 }
	accs := make(map[geodata.Country]*acc)
	for _, r := range rows {
		if !r.Class.IsTracking() {
			continue
		}
		src := ds.Countries[r.Country]
		if !geodata.IsEU28(src) {
			continue
		}
		if _, ok := id.ByPublisher[ds.Publishers[r.Publisher]]; !ok {
			continue
		}
		loc, ok := svc.Locate(r.IP)
		if !ok {
			continue
		}
		x := accs[src]
		if x == nil {
			x = &acc{}
			accs[src] = x
		}
		x.total++
		if loc.Country != src {
			x.outside++
		}
	}
	out := make([]CountryLeak, 0, len(accs))
	for c, x := range accs {
		out = append(out, CountryLeak{Country: c, Total: x.total, Outside: x.outside})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Country < out[j].Country
	})
	return out
}

// oracleRows draws n rows whose user-country and publisher runs have
// independent random lengths up to several chunks, so runs cross chunk
// boundaries and the two columns' run edges interleave. Classes are
// mixed, with all-clean stretches long enough to leave whole chunks
// without a tracking row. IPs 1..8 are located, 9 and 10 are not.
func oracleRows(rng *rand.Rand, n, countries, publishers int) []classify.Row {
	rows := make([]classify.Row, n)
	var country uint8
	var pub int32
	countryLeft, pubLeft, cleanLeft := 0, 0, 0
	for i := range rows {
		if countryLeft == 0 {
			country, countryLeft = uint8(rng.Intn(countries)), 1+rng.Intn(500)
		}
		if pubLeft == 0 {
			pub, pubLeft = int32(rng.Intn(publishers)), 1+rng.Intn(400)
		}
		if cleanLeft == 0 && rng.Intn(400) == 0 {
			cleanLeft = 300 + rng.Intn(300)
		}
		cls := classify.Class(rng.Intn(4))
		if cleanLeft > 0 {
			cls = classify.ClassClean
			cleanLeft--
		}
		rows[i] = classify.Row{
			IP:        netsim.IP(1 + rng.Intn(10)),
			FQDN:      uint32(rng.Intn(20)),
			Publisher: pub,
			User:      int32(country),
			Country:   country,
			Class:     cls,
		}
		countryLeft--
		pubLeft--
	}
	return rows
}

// TestKernelsMatchRowOracle checks BuildReport, DestByCategory and
// CountryLeakage against their row oracles over random rows in wide,
// compressed and spilled stores of 256-row chunks.
func TestKernelsMatchRowOracle(t *testing.T) {
	const chunkRows = 256
	userCountries := []geodata.Country{"DE", "FR", "US", "ES", "CN", "NL", "CH"}
	svc := geo.Static{ServiceName: "oracle", Locations: map[netsim.IP]geo.Location{}}
	for ip, c := range []geodata.Country{"DE", "FR", "US", "NL", "CN", "DE", "ES", "US"} {
		svc.Locations[netsim.IP(ip+1)] = geo.Location{Country: c, Continent: geodata.ContinentOf(c)}
	}
	sensitive := webgraph.SensitiveCategories()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := oracleRows(rng, 6000, len(userCountries), 24)
		frame := classify.Dataset{FQDNs: classify.NewInterner(), Countries: userCountries}
		id := &Identification{ByPublisher: make(map[*webgraph.Publisher]webgraph.Topic)}
		for i := 0; i < 24; i++ {
			p := &webgraph.Publisher{Domain: string(rune('a'+i)) + ".example"}
			frame.Publishers = append(frame.Publishers, p)
			if i%3 != 0 {
				id.ByPublisher[p] = sensitive[rng.Intn(len(sensitive))]
			}
		}

		cleanChunks, crossing := 0, 0
		for lo := 0; lo < len(rows); lo += chunkRows {
			chunk := rows[lo:min(lo+chunkRows, len(rows))]
			if !slices.ContainsFunc(chunk, func(r classify.Row) bool { return r.Class.IsTracking() }) {
				cleanChunks++
			}
			if lo > 0 && rows[lo-1].Publisher == rows[lo].Publisher {
				crossing++
			}
		}
		if cleanChunks == 0 || crossing == 0 {
			t.Fatalf("seed %d: %d all-clean chunks and %d publisher runs across a chunk edge, want both", seed, cleanChunks, crossing)
		}

		wantRep := rowBuildReport(&frame, rows, id)
		wantDest := rowDestByCategory(&frame, rows, id, svc)
		wantLeak := rowCountryLeakage(&frame, rows, id, svc)
		if wantRep.SensitiveFlows == 0 || len(wantDest) < 2 || len(wantLeak) < 2 {
			t.Fatalf("seed %d: degenerate oracle output (%d sensitive flows, %d edges, %d leaks)",
				seed, wantRep.SensitiveFlows, len(wantDest), len(wantLeak))
		}

		for name, mk := range map[string]func() (*classify.MemStore, error){
			"wide":       func() (*classify.MemStore, error) { return classify.NewMemStoreChunked(chunkRows), nil },
			"compressed": func() (*classify.MemStore, error) { return classify.NewMemStoreCompressed(chunkRows), nil },
			"spilled":    func() (*classify.MemStore, error) { return classify.NewMemStoreSpilled(t.TempDir(), chunkRows) },
		} {
			st, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				st.Append(r)
			}
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
			ds := frame
			ds.Store = st
			if got := BuildReport(&ds, id); !reflect.DeepEqual(got, wantRep) {
				t.Errorf("seed %d %s: BuildReport = %+v, row oracle %+v", seed, name, got, wantRep)
			}
			if got := DestByCategory(&ds, id, svc); !reflect.DeepEqual(got, wantDest) {
				t.Errorf("seed %d %s: DestByCategory = %+v, row oracle %+v", seed, name, got, wantDest)
			}
			if got := CountryLeakage(&ds, id, svc); !reflect.DeepEqual(got, wantLeak) {
				t.Errorf("seed %d %s: CountryLeakage = %+v, row oracle %+v", seed, name, got, wantLeak)
			}
			st.Close()
		}
	}
}
