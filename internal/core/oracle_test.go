package core

import (
	"math/rand"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// rowAnalyze is Analyze's row oracle: it walks full-width rows, keeps
// the tracking rows keep accepts, and locates each one individually.
func rowAnalyze(ds *classify.Dataset, svc geo.Service, keep func(classify.Row) bool) *Analysis {
	a := NewAnalysis()
	ds.EachRow(func(_ int, r classify.Row) {
		if !r.Class.IsTracking() || !keep(r) {
			return
		}
		loc, ok := svc.Locate(r.IP)
		if !ok {
			a.AddUnknown(1)
			return
		}
		a.Add(ds.Countries[r.Country], loc.Country, 1)
	})
	return a
}

// oracleBackends streams rows into the three store layouts: wide and
// compressed memory, and spill.
func oracleBackends(t *testing.T, rows []classify.Row, chunkRows int) map[string]classify.Store {
	t.Helper()
	out := make(map[string]classify.Store)
	for name, mk := range map[string]func() (classify.RowSink, error){
		"mem/wide":         func() (classify.RowSink, error) { return classify.NewMemStoreChunked(chunkRows), nil },
		"mem/compressed":   func() (classify.RowSink, error) { return classify.NewMemStoreCompressed(chunkRows), nil },
		"spill/compressed": func() (classify.RowSink, error) { return classify.NewSpillSink(t.TempDir(), chunkRows) },
	} {
		sink, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			sink.Append(r)
		}
		st, err := sink.Seal()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		out[name] = st
	}
	return out
}

// oracleRows draws n rows in per-user capture blocks (constant country
// per block, so Country is run-heavy and zone maps can prune) whose IP
// column alternates between a small pool (dictionary coded) and random
// addresses (raw), over countries 0..numCountries-1.
func oracleRows(rng *rand.Rand, n, numCountries int) []classify.Row {
	rows := make([]classify.Row, 0, n)
	for len(rows) < n {
		country := uint8(rng.Intn(numCountries))
		narrow := rng.Intn(2) == 0
		for k := 1 + rng.Intn(400); k > 0 && len(rows) < n; k-- {
			r := classify.Row{FQDN: 1, IP: netsim.IP(rng.Intn(64)), Country: country}
			if !narrow {
				r.IP = netsim.IP(rng.Uint32())
			}
			if rng.Intn(3) != 0 {
				r.Class = classify.Class(1 + rng.Intn(3))
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// TestKernelsMatchRowOracle is the kernel-equivalence property for the
// geolocation join: over random datasets on every store backend,
// Analyze and AnalyzeWhere(CountryEquals) for every country — including
// one the dataset never saw — agree with the row oracle. The largest
// dataset spans enough rows to run the parallel scan.
func TestKernelsMatchRowOracle(t *testing.T) {
	countries := []geodata.Country{"DE", "ES", "GR", "US", "BR"}
	locs := make(map[netsim.IP]geo.Location)
	for ip := netsim.IP(0); ip < 64; ip += 2 { // odd addresses stay unlocatable
		locs[ip] = geo.Location{Country: countries[int(ip)%len(countries)]}
	}
	svc := geo.Static{ServiceName: "oracle", Locations: locs}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2000, 5000, 3 * analyzeRowsPerShard} {
		rows := oracleRows(rng, n, len(countries)-1) // "BR" never occurs
		for name, st := range oracleBackends(t, rows, 256) {
			ds := &classify.Dataset{Store: st, Countries: countries[:len(countries)-1]}
			all := func(classify.Row) bool { return true }
			if got, want := Analyze(ds, svc), rowAnalyze(ds, svc, all); !got.Equal(want) {
				t.Errorf("n=%d %s Analyze: %d flows (%d unknown), oracle %d (%d)",
					n, name, got.Total(), got.Unknown(), want.Total(), want.Unknown())
			}
			for _, c := range countries {
				got := AnalyzeWhere(ds, svc, CountryEquals(c))
				want := rowAnalyze(ds, svc, func(r classify.Row) bool { return ds.Countries[r.Country] == c })
				if !got.Equal(want) {
					t.Errorf("n=%d %s AnalyzeWhere(%s): %d flows, oracle %d", n, name, c, got.Total(), want.Total())
				}
			}
		}
	}
}
