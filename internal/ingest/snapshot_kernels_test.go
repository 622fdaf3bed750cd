package ingest

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/geo"
	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/pdns"
	"crossborder/internal/trackerdb"
	"crossborder/internal/webgraph"
)

// TestSnapshotStoreKernels runs every projection kernel over the
// epoch snapshot store (classify.MemStore.Freeze): a frozen mix of
// shared compressed blocks and capped wide tails with copied class
// columns. At each epoch of a random append stream, the kernels over
// the snapshot must equal the same kernels over the live store it
// froze — which the packages' row-oracle properties pin for both
// memory-store modes.
func TestSnapshotStoreKernels(t *testing.T) {
	countries := []geodata.Country{"DE", "ES", "GR", "US"}
	locs := make(map[netsim.IP]geo.Location)
	for ip := netsim.IP(0); ip < 32; ip += 3 {
		locs[ip] = geo.Location{Country: countries[int(ip)%len(countries)]}
	}
	svc := geo.Static{ServiceName: "snap", Locations: locs}
	frame := classify.Dataset{FQDNs: classify.NewInterner(), Countries: countries, Start: time.Unix(0, 0)}
	db := pdns.NewDB()
	for i := 1; i < 60; i++ {
		f := fmt.Sprintf("h%d.t%d.example", i, i%7)
		frame.FQDNs.ID(f)
		db.ObserveWindow(f, netsim.IP(i%32), frame.Start, frame.Start.Add(time.Hour))
	}
	for i := 0; i < 20; i++ {
		frame.Publishers = append(frame.Publishers, &webgraph.Publisher{Domain: fmt.Sprintf("site%02d.example", i)})
	}

	for mode, st := range map[string]*classify.MemStore{
		"wide":       classify.NewMemStoreChunked(256),
		"compressed": classify.NewMemStoreCompressed(256),
	} {
		rng := rand.New(rand.NewSource(7))
		live := frame
		live.Store = st
		var prev *classify.MemStore
		for epoch := 0; epoch < 4; epoch++ {
			prevRows := st.Len()
			country := uint8(0)
			for k := 500 + rng.Intn(1000); k > 0; k-- {
				if k%200 == 0 { // per-user capture blocks: zone maps can prune
					country = uint8(rng.Intn(len(countries)))
				}
				r := classify.Row{
					URLHash: uint64(rng.Intn(400)), IP: netsim.IP(rng.Intn(32)),
					FQDN: uint32(1 + rng.Intn(59)), Publisher: int32(rng.Intn(20)),
					User: int32(epoch), Country: country,
					Flags: uint8(rng.Intn(16)), Class: classify.Class(rng.Intn(4)),
				}
				if k%7 == 0 {
					r.IP = netsim.IP(rng.Uint32())
				}
				st.Append(r)
			}
			live.Visits = st.Len() / 10
			prev = st.Freeze(prev, prevRows, nil)
			snap := live
			snap.Store = prev
			for _, k := range []struct {
				kernel string
				run    func(*classify.Dataset) any
			}{
				{"Table2", func(ds *classify.Dataset) any { return classify.ComputeTable2(ds) }},
				{"PerSiteCounts", func(ds *classify.Dataset) any { return classify.PerSiteCounts(ds) }},
				{"TopTrackingTLDs", func(ds *classify.Dataset) any { return classify.TopTrackingTLDs(ds, 0) }},
				{"Score", func(ds *classify.Dataset) any { return classify.Score(ds) }},
				{"ComputeStats", func(ds *classify.Dataset) any { return classify.ComputeStats(ds) }},
				{"Analyze", func(ds *classify.Dataset) any { return core.Analyze(ds, svc) }},
				{"Compile", func(ds *classify.Dataset) any { return trackerdb.Compile(ds, db) }},
			} {
				if got, want := k.run(&snap), k.run(&live); !reflect.DeepEqual(got, want) {
					t.Errorf("%s epoch %d %s: snapshot %+v, live %+v", mode, epoch, k.kernel, got, want)
				}
			}
		}
		if st.Compressed() && st.Footprint().SealedChunks == 0 {
			t.Fatalf("%s: the snapshots never shared a sealed block", mode)
		}
	}
}
