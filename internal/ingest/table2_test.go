package ingest

import (
	"sort"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/webgraph"
)

// table2ByRows is a row-by-row Table 2 reference: every tracking row
// inserts its FQDN, eTLD+1 and URL hash into its method's sets and the
// union's.
func table2ByRows(ds *classify.Dataset) classify.Table2 {
	type sets struct {
		fqdns map[uint32]bool
		tlds  map[string]bool
		urls  map[uint64]bool
		rows  int64
	}
	var abp, semi, all sets
	for _, s := range []*sets{&abp, &semi, &all} {
		s.fqdns, s.tlds, s.urls = map[uint32]bool{}, map[string]bool{}, map[uint64]bool{}
	}
	ds.EachRow(func(_ int, r classify.Row) {
		if !r.Class.IsTracking() {
			return
		}
		method := &semi
		if r.Class == classify.ClassABP {
			method = &abp
		}
		for _, s := range []*sets{method, &all} {
			s.fqdns[r.FQDN] = true
			s.tlds[webgraph.ETLDPlusOne(ds.FQDNs.Str(r.FQDN))] = true
			s.urls[r.URLHash] = true
			s.rows++
		}
	})
	stats := func(s sets) classify.MethodStats {
		return classify.MethodStats{FQDNs: len(s.fqdns), TLDs: len(s.tlds), UniqueRequests: int64(len(s.urls)), TotalRequests: s.rows}
	}
	return classify.Table2{ABP: stats(abp), Semi: stats(semi), Total: stats(all)}
}

// TestTable2OnLiveAndMergedSnapshots: the method-mask Table 2 over a
// live collector's published snapshot after every epoch (compressed
// shared blocks plus a capped wide tail) and over a MergeExports view,
// whose interner numbers hostnames in merge order, equals the
// row-by-row reference. This rig's epochs flip no rows; classify's
// TestTable2MatchesSetOracle covers flips on the live stores.
func TestTable2OnLiveAndMergedSnapshots(t *testing.T) {
	world, evs, _ := rig(t)
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	c := NewCollector(world, Config{EpochEvents: 2999, Workers: 2, ChunkRows: 512, Compress: true})
	defer c.Close()
	checked, lastEpoch := 0, 0
	for _, uid := range users {
		if _, err := c.Ingest(Batch{User: uid, Events: evs[uid]}); err != nil {
			t.Fatal(err)
		}
		snap := c.Snapshot()
		if snap.Epoch() == lastEpoch {
			continue
		}
		lastEpoch = snap.Epoch()
		if got, want := classify.ComputeTable2(snap.Dataset()), table2ByRows(snap.Dataset()); got != want {
			t.Fatalf("live epoch %d:\n got %+v\nwant %+v", snap.Epoch(), got, want)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d epochs checked", checked)
	}

	merged, err := MergeExports(world, exportShards(t, world, shardEvents(evs, 3), 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := classify.ComputeTable2(merged.Dataset()), table2ByRows(merged.Dataset()); got != want {
		t.Fatalf("merged:\n got %+v\nwant %+v", got, want)
	}
}
