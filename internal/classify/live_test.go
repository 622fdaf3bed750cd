package classify

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestLiveSemiRestoreResumesFixpoint: a fresh fixpoint whose first
// Extend runs over rows another one already labelled, as checkpoint
// recovery does, rebuilds the same LTF and candidate frontier from the
// rows alone, changes no label, and finishes the later epochs exactly
// as the one-shot run labels them.
func TestLiveSemiRestoreResumesFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Hostnames sparse enough that candidates outlive the first epoch.
	const numFQDN = 3000
	rows := randomRows(rng, 3000, numFQDN)
	in := NewInterner()
	for i := 1; i < numFQDN; i++ {
		in.ID(fmt.Sprintf("h%d.x", i))
	}
	want := semiReference(t, &Dataset{FQDNs: in}, rows)
	for _, compress := range []bool{false, true} {
		st := NewMemStoreChunked(256)
		if compress {
			st = NewMemStoreCompressed(256)
		}
		ds := &Dataset{FQDNs: in, Store: st}
		for _, r := range rows[:1700] {
			st.Append(r)
		}
		before := NewLiveSemi(ds, 2)
		before.Extend()
		before.Close()
		if len(before.cand) == 0 {
			t.Fatal("no candidates survive the first epoch; the restore has nothing to rebuild")
		}
		settled := ds.Rows()

		ls := NewLiveSemi(ds, 3)
		if flipped := ls.Extend(); len(flipped) != 0 {
			t.Fatalf("compressed=%v: restoring Extend flipped %d settled rows", compress, len(flipped))
		}
		if !slices.Equal(ls.inLTF, before.inLTF) || !slices.Equal(ls.cand, before.cand) {
			t.Fatalf("compressed=%v: rebuilt LTF or frontier differs from the original's", compress)
		}
		for i, r := range ds.Rows() {
			if r != settled[i] {
				t.Fatalf("compressed=%v row %d relabelled by the restoring Extend: %+v, was %+v", compress, i, r, settled[i])
			}
		}
		for _, r := range rows[1700:] {
			st.Append(r)
		}
		ls.Extend()
		ls.Close()
		for i, r := range ds.Rows() {
			if r != want[i] {
				t.Fatalf("compressed=%v row %d: %+v, one-shot %+v", compress, i, r, want[i])
			}
		}
	}
}
