package core

import (
	"math/rand"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
)

// rowAnalyze is Join's row oracle: it walks full-width rows and locates
// each tracking row individually.
func rowAnalyze(ds *classify.Dataset, svc geo.Service) *Analysis {
	a := NewAnalysis()
	ds.EachRow(func(_ int, r classify.Row) {
		if !r.Class.IsTracking() {
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
// compressed memory, and spilled.
func oracleBackends(t *testing.T, rows []classify.Row, chunkRows int) map[string]*classify.MemStore {
	t.Helper()
	out := make(map[string]*classify.MemStore)
	for name, mk := range map[string]func() (*classify.MemStore, error){
		"mem/wide":         func() (*classify.MemStore, error) { return classify.NewMemStoreChunked(chunkRows), nil },
		"mem/compressed":   func() (*classify.MemStore, error) { return classify.NewMemStoreCompressed(chunkRows), nil },
		"spill/compressed": func() (*classify.MemStore, error) { return classify.NewMemStoreSpilled(t.TempDir(), chunkRows) },
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
// Analyze, and Join with two services whose unlocatable sets differ,
// agree with the row oracle. The largest dataset spans enough rows to
// run the parallel scan.
func TestKernelsMatchRowOracle(t *testing.T) {
	countries := []geodata.Country{"DE", "ES", "GR", "US", "BR"}
	even := make(map[netsim.IP]geo.Location) // odd addresses stay unlocatable
	low := make(map[netsim.IP]geo.Location)  // addresses >= 40 stay unlocatable
	for ip := netsim.IP(0); ip < 64; ip++ {
		loc := geo.Location{Country: countries[int(ip)%len(countries)]}
		if ip%2 == 0 {
			even[ip] = loc
		}
		if ip < 40 {
			low[ip] = loc
		}
	}
	svcs := []geo.Service{
		geo.Static{ServiceName: "even", Locations: even},
		geo.Static{ServiceName: "low", Locations: low},
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2000, 5000, 3 * analyzeRowsPerShard} {
		rows := oracleRows(rng, n, len(countries)-1) // "BR" never occurs
		for name, st := range oracleBackends(t, rows, 256) {
			ds := &classify.Dataset{Store: st, Countries: countries[:len(countries)-1]}
			if got, want := Analyze(ds, svcs[0]), rowAnalyze(ds, svcs[0]); !got.Equal(want) {
				t.Errorf("n=%d %s Analyze: %d flows (%d unknown), oracle %d (%d)",
					n, name, got.Total(), got.Unknown(), want.Total(), want.Unknown())
			}
			for s, got := range Join(ds, svcs) {
				if want := rowAnalyze(ds, svcs[s]); !got.Equal(want) {
					t.Errorf("n=%d %s Join %s: %d flows (%d unknown), oracle %d (%d)",
						n, name, svcs[s].Name(), got.Total(), got.Unknown(), want.Total(), want.Unknown())
				}
			}
		}
	}
}
