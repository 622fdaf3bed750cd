package classify

import (
	"math/rand"
	"strings"
	"testing"

	"crossborder/internal/browser"
	"crossborder/internal/netsim"
)

// randomRows builds a synthetic capture with cascade structure: FQDN
// ids drawn from a small universe so referrer chains actually connect,
// a seeded share of ABP verdicts, and random args/keyword flags.
func randomRows(rng *rand.Rand, n, numFQDN int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := Row{
			URLHash: rng.Uint64(),
			IP:      netsim.IP(rng.Uint32()),
			FQDN:    uint32(1 + rng.Intn(numFQDN-1)),
			User:    int32(rng.Intn(7)),
			Day:     uint16(rng.Intn(120)),
			Country: uint8(rng.Intn(4)),
		}
		if rng.Float64() < 0.7 {
			r.RefFQDN = uint32(1 + rng.Intn(numFQDN-1))
		}
		if rng.Float64() < 0.6 {
			r.Flags |= FlagHasArgs
		}
		if rng.Float64() < 0.25 {
			r.Flags |= FlagKeyword
		}
		if rng.Float64() < 0.08 {
			r.Class = ClassABP
		}
		rows[i] = r
	}
	return rows
}

// internerOfSize returns an interner with n synthetic hostnames.
func internerOfSize(n int) *Interner {
	in := NewInterner()
	for i := 1; i < n; i++ {
		in.ID(string(rune('a'+i%26)) + string(rune('0'+i%10)) + ".x")
	}
	return in
}

func TestMemStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := randomRows(rng, 1000, 50)
	st := NewMemStoreChunked(64) // force many chunks
	for _, r := range rows {
		st.Append(r)
	}
	if st.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(rows))
	}
	wantChunks := (len(rows) + 63) / 64
	if st.NumChunks() != wantChunks {
		t.Fatalf("NumChunks = %d, want %d", st.NumChunks(), wantChunks)
	}
	ds := &Dataset{Store: st}
	got := ds.Rows()
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], rows[i])
		}
	}
}

func TestSpillStoreMatchesMemStore(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randomRows(rng, 2000, 80)
	store, err := NewMemStoreSpilled(t.TempDir(), 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		store.Append(r)
	}
	if err := store.Seal(); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Len() != len(rows) {
		t.Fatalf("Len = %d, want %d", store.Len(), len(rows))
	}
	ds := &Dataset{Store: store}
	got := ds.Rows()
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("row %d: decoded %+v != appended %+v", i, got[i], rows[i])
		}
	}
	// The class column must be resident and shared: a write through one
	// view is seen by the next projection of the chunk.
	cls := store.Classes(3)
	cls[5] = ClassSemiKeyword
	pc := ProjChunkAt(store, 3, GetProj())
	defer PutProj(pc)
	if pc.Class[5] != ClassSemiKeyword {
		t.Fatal("class column write not visible through reprojected chunk")
	}
}

// TestFinalizeIntoSpillMatchesMem runs the same simulated capture
// through both sinks: the sealed datasets must agree row for row, and
// the semi stages must behave identically over the spilled store.
func TestFinalizeIntoSpillMatchesMem(t *testing.T) {
	g, srv, el, ep := shardRig(t, 21)
	users := browser.MakeUsers([]browser.CountryCount{{Country: "DE", Users: 3}, {Country: "FR", Users: 2}})
	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 15})

	mk := func() *ShardedCollector {
		sc := NewShardedCollector(g, el, ep, start, 2)
		sim.RunWorkers(9, users, 2, func(w int) []browser.Sink {
			return []browser.Sink{sc.Shard(w)}
		})
		return sc
	}

	memDS, err := mk().FinalizeInto(users, NewMemStore())
	if err != nil {
		t.Fatal(err)
	}

	sink, err := NewMemStoreSpilled(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	spillDS, err := mk().FinalizeInto(users, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer spillDS.Close()

	datasetsEqual(t, memDS, spillDS)

	sm, ss := ComputeStats(memDS), ComputeStats(spillDS)
	if sm != ss {
		t.Fatalf("DatasetStats differ: %+v vs %+v", sm, ss)
	}
}

// TestSpillWriteErrorKeepsOpenChunkBounded: once a spill write fails,
// full chunks still leave the open chunk as they fill, so it never
// grows past ChunkRows, and Seal reports the write error.
func TestSpillWriteErrorKeepsOpenChunkBounded(t *testing.T) {
	const chunkRows = 64
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, 5*chunkRows+17, 30)
	st, err := NewMemStoreSpilled(t.TempDir(), chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:chunkRows+3] {
		st.Append(r)
	}
	st.file.f.Close() // every later spill write fails
	for i, r := range rows[chunkRows+3:] {
		st.Append(r)
		open := 0
		for _, c := range st.wide {
			open += c.Len()
		}
		if open >= chunkRows {
			t.Fatalf("row %d: %d rows wait unsealed, want fewer than %d", chunkRows+3+i, open, chunkRows)
		}
	}
	if err := st.Seal(); err == nil || !strings.Contains(err.Error(), "write spill chunk") {
		t.Fatalf("Seal after a failed spill write = %v, want the write error", err)
	}
}
