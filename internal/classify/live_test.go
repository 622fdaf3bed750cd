package classify

import (
	"math/rand"
	"testing"

	"crossborder/internal/browser"
)

// liveRigDataset builds a merged, stage-1-classified dataset (semi
// stages NOT run) the incremental tests can replay in arbitrary epoch
// splits.
func liveRigDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	g, srv, el, ep := shardRig(t, seed)
	users := browser.MakeUsers([]browser.CountryCount{
		{Country: "DE", Users: 5}, {Country: "ES", Users: 4},
		{Country: "FR", Users: 3}, {Country: "BR", Users: 3},
	})
	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 25})
	sc := NewShardedCollector(g, el, ep, start, 1)
	sim.Run(seed, users, sc.Shard(0))
	order := make([]capRef, len(sc.Shard(0).caps))
	for i := range order {
		order[i] = capRef{sh: sc.Shard(0), idx: i}
	}
	ds, err := sc.mergeInto(order, NewMemStore(), false)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestLiveSemiMatchesBatchFixpoint: appending the rows in random epoch
// splits and extending the incremental fixpoint after each must label
// every row exactly as the one-shot batch run does (semiReference, which
// holds that run to the sequential oracle), at every worker count and
// over wide and compressed stores. Old-row flips must be reported
// exactly: every settled row whose tracking bit changes, nothing else.
func TestLiveSemiMatchesBatchFixpoint(t *testing.T) {
	for _, seed := range []int64{3, 17, 92} {
		ref := liveRigDataset(t, seed)
		rows := ref.Rows() // pre-fixpoint snapshot of the merged rows
		want := semiReference(t, ref, rows)

		rng := rand.New(rand.NewSource(seed))
		for _, workers := range []int{1, 2, 3, 8} {
			for _, compress := range []bool{false, true} {
				st := NewMemStoreChunked(96)
				if compress {
					st = NewMemStoreCompressed(96)
				}
				// The incremental engine reads only ds.FQDNs.Len(); sharing
				// the reference interner (read-only here) keeps ids aligned.
				live := &Dataset{FQDNs: ref.FQDNs, Start: start, Store: st}
				ls := NewLiveSemi(live, workers)

				off := 0
				var settledTracking []bool
				for off < len(rows) {
					n := 1 + rng.Intn(len(rows)/2+1)
					if off+n > len(rows) {
						n = len(rows) - off
					}
					for _, r := range rows[off : off+n] {
						st.Append(r)
					}
					prevSettled := off
					off += n
					flips := ls.Extend()
					// Reported flips must be exactly the settled rows whose
					// tracking bit changed this epoch.
					flipSet := make(map[int]bool, len(flips))
					for _, g := range flips {
						if g >= prevSettled {
							t.Fatalf("seed %d: flip %d inside the new epoch [%d, %d)", seed, g, prevSettled, off)
						}
						flipSet[g] = true
					}
					for i := 0; i < prevSettled; i++ {
						now := trackingAt(st, i)
						if now != settledTracking[i] && !flipSet[i] {
							t.Fatalf("seed %d: row %d flipped silently", seed, i)
						}
						if settledTracking[i] && flipSet[i] {
							t.Fatalf("seed %d: row %d reported as flip but was already tracking", seed, i)
						}
					}
					settledTracking = settledTracking[:0]
					for i := 0; i < off; i++ {
						settledTracking = append(settledTracking, trackingAt(st, i))
					}
				}
				ls.Close()

				got := live.Rows()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d workers %d compressed=%v: row %d class %v, one-shot %v",
							seed, workers, compress, i, got[i].Class, want[i].Class)
					}
				}
			}
		}
	}
}

// trackingAt reads one row's tracking bit from the resident class
// column.
func trackingAt(st *MemStore, global int) bool {
	return st.Classes(global / st.ChunkRows())[global%st.ChunkRows()].IsTracking()
}
