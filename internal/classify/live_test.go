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
// splits and extending the incremental fixpoint after each must yield
// the same classification as the one-shot batch fixpoint, at the level
// every aggregate reads: the tracking set and the ABP label (the
// SemiReferrer/SemiKeyword split of rows recovered by both heuristics
// may differ; it is observable nowhere). Old-row flips must be reported
// exactly: every settled row whose tracking bit changes, nothing else.
func TestLiveSemiMatchesBatchFixpoint(t *testing.T) {
	for _, seed := range []int64{3, 17, 92} {
		ref := liveRigDataset(t, seed)
		rows := ref.Rows() // pre-fixpoint snapshot of the merged rows
		runSemiStages(ref, 4)
		want := ref.Rows()

		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 3; trial++ {
			st := NewMemStoreChunked(96)
			// The incremental engine reads only ds.FQDNs.Len(); sharing
			// the reference interner (read-only here) keeps ids aligned.
			live := &Dataset{FQDNs: ref.FQDNs, Start: start, Store: st}
			ls := NewLiveSemi(live, 1+rng.Intn(4))

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

			// Final parity with the batch fixpoint.
			got := live.Rows()
			for i := range want {
				if got[i].Class.IsTracking() != want[i].Class.IsTracking() ||
					(got[i].Class == ClassABP) != (want[i].Class == ClassABP) {
					t.Fatalf("seed %d trial %d: row %d class %v, batch %v",
						seed, trial, i, got[i].Class, want[i].Class)
				}
			}
		}
	}
}

// trackingAt reads one row's tracking bit from the resident class
// column.
func trackingAt(st Store, global int) bool {
	return st.Classes(global / st.ChunkRows())[global%st.ChunkRows()].IsTracking()
}
