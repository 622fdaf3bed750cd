package trackerdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/netsim"
	"crossborder/internal/pdns"
)

// rowObserve is the row oracle for Compile's first pass: the tracking
// FQDNs and the per-IP tracking request counts, tallied row by row.
func rowObserve(ds *classify.Dataset) (fqdns map[string]struct{}, requests map[netsim.IP]int64) {
	fqdns = make(map[string]struct{})
	requests = make(map[netsim.IP]int64)
	ds.EachRow(func(_ int, r classify.Row) {
		if r.Class.IsTracking() {
			fqdns[ds.FQDNs.Str(r.FQDN)] = struct{}{}
			requests[r.IP]++
		}
	})
	return fqdns, requests
}

// TestKernelsMatchRowOracle is the kernel-equivalence property for the
// inventory scan: over random datasets on every store backend, Compile
// observes exactly the tracking FQDNs and per-IP request counts of the
// row oracle, and the whole inventory (pDNS completion included) is the
// same on every backend.
func TestKernelsMatchRowOracle(t *testing.T) {
	const chunkRows = 256
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frame := &classify.Dataset{FQDNs: classify.NewInterner(), Start: t0}
		for i := 1; i < 80; i++ {
			frame.FQDNs.ID(fmt.Sprintf("h%d.t%d.example", i, i%9))
		}
		db := pdns.NewDB()
		for i := 0; i < 60; i++ {
			db.ObserveWindow(frame.FQDNs.Str(uint32(1+rng.Intn(79))), netsim.IP(rng.Intn(40)), t0, t2)
		}
		var rows []classify.Row
		for n := 1000 + rng.Intn(3000); len(rows) < n; {
			// Blocks alternate between a small IP/FQDN vocabulary
			// (dictionary coded) and random values (raw).
			narrow := rng.Intn(2) == 0
			base := 1 + rng.Intn(70)
			for k := 1 + rng.Intn(600); k > 0; k-- {
				r := classify.Row{FQDN: uint32(base + rng.Intn(9)), IP: netsim.IP(rng.Intn(40))}
				if !narrow {
					r.FQDN = uint32(1 + rng.Intn(79))
					r.IP = netsim.IP(rng.Uint32())
				}
				if rng.Intn(3) == 0 {
					r.Class = classify.Class(1 + rng.Intn(3))
				}
				rows = append(rows, r)
			}
		}

		var ref *Inventory
		for name, st := range oracleBackends(t, rows, chunkRows) {
			ds := *frame
			ds.Store = st
			inv := Compile(&ds, db)
			fqdns, requests := rowObserve(&ds)
			if !reflect.DeepEqual(inv.trackingFQDNs, fqdns) {
				t.Errorf("seed %d %s: %d tracking FQDNs, oracle %d", seed, name, len(inv.trackingFQDNs), len(fqdns))
			}
			observed := 0
			for ip, info := range inv.ips {
				if info.Observed {
					observed++
					if info.Requests != requests[ip] {
						t.Errorf("seed %d %s: IP %v serves %d requests, oracle %d", seed, name, ip, info.Requests, requests[ip])
					}
				}
			}
			if observed != len(requests) {
				t.Errorf("seed %d %s: %d observed IPs, oracle %d", seed, name, observed, len(requests))
			}
			if ref == nil {
				ref = inv
			} else if !reflect.DeepEqual(inv, ref) {
				t.Errorf("seed %d %s: inventory differs across backends", seed, name)
			}
		}
	}
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
