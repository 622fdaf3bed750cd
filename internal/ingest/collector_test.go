package ingest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/scenario"
)

// The shared test rig: one world (no browsing study), the captured
// upload stream, and the batch-built reference scenario with identical
// params.
var (
	rigOnce  sync.Once
	rigWorld *scenario.Scenario
	rigEvs   map[int32][]Event
	rigBatch *scenario.Scenario
)

const (
	rigSeed   = 11
	rigScale  = 0.02
	rigVisits = 8
)

func rig(tb testing.TB) (*scenario.Scenario, map[int32][]Event, *scenario.Scenario) {
	tb.Helper()
	rigOnce.Do(func() {
		p := scenario.Params{Seed: rigSeed, Scale: rigScale, VisitsPerUser: rigVisits}
		rigWorld = scenario.BuildWorld(p)
		rigEvs = RecordSimulation(rigWorld, rigVisits, 3)
		rigBatch = scenario.Build(p)
	})
	return rigWorld, rigEvs, rigBatch
}

// ingestAll replays the recorded streams into c in user order with the
// given per-upload batch size, then flushes.
func ingestAll(t *testing.T, c *Collector, evs map[int32][]Event, batchSize int) *Snapshot {
	t.Helper()
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if users[j] < users[i] {
				users[i], users[j] = users[j], users[i]
			}
		}
	}
	for _, uid := range users {
		stream := evs[uid]
		for off := 0; off < len(stream); off += batchSize {
			hi := off + batchSize
			if hi > len(stream) {
				hi = len(stream)
			}
			if _, err := c.Ingest(Batch{User: uid, Seq: uint64(off), Events: stream[off:hi]}); err != nil {
				t.Fatalf("ingest user %d seq %d: %v", uid, off, err)
			}
		}
	}
	return c.Flush()
}

// TestReplayReconstructsBatchDataset: replaying the simulation's event
// stream through the collector — any epoch size, any worker count —
// reproduces the batch pipeline's dataset: identical rows, class labels
// included, interner, publishers, countries and visits.
func TestReplayReconstructsBatchDataset(t *testing.T) {
	world, evs, batch := rig(t)
	want := batch.Dataset
	for _, cfg := range []Config{
		{EpochEvents: 251, Workers: 3, ChunkRows: 64},
		{EpochEvents: 1 << 20, Workers: 1},
		{EpochEvents: 251, Workers: 3, ChunkRows: 64, Compress: true},
	} {
		c := NewCollector(world, cfg)
		snap := ingestAll(t, c, evs, 137)
		got := snap.Dataset()

		if got.Len() != want.Len() {
			t.Fatalf("cfg %+v: rows = %d, want %d", cfg, got.Len(), want.Len())
		}
		if got.Visits != want.Visits {
			t.Errorf("cfg %+v: visits = %d, want %d", cfg, got.Visits, want.Visits)
		}
		if got.FQDNs.Len() != want.FQDNs.Len() {
			t.Fatalf("cfg %+v: interner len = %d, want %d", cfg, got.FQDNs.Len(), want.FQDNs.Len())
		}
		for id := 0; id < want.FQDNs.Len(); id++ {
			if got.FQDNs.Str(uint32(id)) != want.FQDNs.Str(uint32(id)) {
				t.Fatalf("cfg %+v: interner id %d = %q, want %q",
					cfg, id, got.FQDNs.Str(uint32(id)), want.FQDNs.Str(uint32(id)))
			}
		}
		if len(got.Publishers) != len(want.Publishers) {
			t.Fatalf("cfg %+v: publishers = %d, want %d", cfg, len(got.Publishers), len(want.Publishers))
		}
		// The worlds are separate (deterministic) graph builds, so
		// publisher identity is by domain, not pointer.
		for i := range want.Publishers {
			if got.Publishers[i].Domain != want.Publishers[i].Domain {
				t.Fatalf("cfg %+v: publisher %d = %q, want %q",
					cfg, i, got.Publishers[i].Domain, want.Publishers[i].Domain)
			}
		}
		wantRows := want.Rows()
		gotRows := got.Rows()
		for i := range wantRows {
			w, g := wantRows[i], gotRows[i]
			if g.Class != w.Class {
				t.Fatalf("cfg %+v: row %d class = %v, want %v", cfg, i, g.Class, w.Class)
			}
			if g != w {
				t.Fatalf("cfg %+v: row %d = %+v, want %+v", cfg, i, g, w)
			}
		}
		c.Close()
	}
}

// TestDerivedAggregatesMatchRescan: at every epoch size, the aggregates
// a live snapshot derives from its rows equal a full rescan of the
// snapshot dataset — DatasetStats via ComputeStats and all three flow
// maps via one core.Analyze per service.
func TestDerivedAggregatesMatchRescan(t *testing.T) {
	world, evs, _ := rig(t)
	for _, epoch := range []int{173, 997, 1 << 20} {
		// Compress on the middle epoch size: the derived views must read
		// identically through decoded sealed blocks.
		c := NewCollector(world, Config{EpochEvents: epoch, Workers: 2, ChunkRows: 128, Compress: epoch == 997})
		snap := ingestAll(t, c, evs, 211)
		ds := snap.Dataset()

		if got, want := snap.Stats(), classify.ComputeStats(ds); got != want {
			t.Errorf("epoch %d: stats = %+v, want %+v", epoch, got, want)
		}
		assertFlowsRescan(t, fmt.Sprintf("epoch %d", epoch), snap)
		c.Close()
	}
}

// TestSequenceDedup covers the at-least-once contract: retransmits are
// skipped, overlapping batches accept only the fresh suffix, and a gap
// is rejected without state change.
func TestSequenceDedup(t *testing.T) {
	world, evs, _ := rig(t)
	var uid int32 = -1
	for u, stream := range evs {
		if len(stream) >= 10 && (uid < 0 || u < uid) {
			uid = u
		}
	}
	if uid < 0 {
		t.Fatal("no user with enough events")
	}
	stream := evs[uid]
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	defer c.Close()

	res, err := c.Ingest(Batch{User: uid, Seq: 0, Events: stream[:5]})
	if err != nil || res.Accepted != 5 || res.NextSeq != 5 {
		t.Fatalf("first upload: %+v, %v", res, err)
	}
	// Exact retransmit: all duplicate.
	res, err = c.Ingest(Batch{User: uid, Seq: 0, Events: stream[:5]})
	if err != nil || res.Accepted != 0 || res.Duplicate != 5 {
		t.Fatalf("retransmit: %+v, %v", res, err)
	}
	// Overlap: seq 3 with 5 events = 2 dup + 3 fresh.
	res, err = c.Ingest(Batch{User: uid, Seq: 3, Events: stream[3:8]})
	if err != nil || res.Accepted != 3 || res.Duplicate != 2 || res.NextSeq != 8 {
		t.Fatalf("overlap: %+v, %v", res, err)
	}
	// Gap: seq 9 when 8 expected.
	if _, err := c.Ingest(Batch{User: uid, Seq: 9, Events: stream[9:10]}); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("gap accepted: %v", err)
	}
	if got := c.PendingEvents(); got != 8 {
		t.Fatalf("pending = %d, want 8", got)
	}
	// Unknown user / publisher rejected before sequence advance.
	if _, err := c.Ingest(Batch{User: 1 << 20, Seq: 0, Events: stream[:1]}); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("unknown user accepted: %v", err)
	}
	bad := stream[0]
	bad.Publisher = "no-such-site.example"
	if _, err := c.Ingest(Batch{User: uid, Seq: 8, Events: []Event{bad}}); !errors.Is(err, ErrUnknownPublisher) {
		t.Fatalf("unknown publisher accepted: %v", err)
	}
}

// TestRequestsWithoutVisit: a legal upload stream may carry requests
// whose page visit was never uploaded (lost batch, client truncation).
// The rows must resolve to the real publisher — registered on first
// reference — never silently alias publisher id 0, and querying the
// snapshot must not panic on an empty publisher table.
func TestRequestsWithoutVisit(t *testing.T) {
	world, evs, _ := rig(t)
	var uid int32 = -1
	for u, stream := range evs {
		has := 0
		for _, ev := range stream {
			if ev.Kind == KindRequest {
				has++
			}
		}
		if has >= 3 && (uid < 0 || u < uid) {
			uid = u
		}
	}
	var reqs []Event
	for _, ev := range evs[uid] {
		if ev.Kind == KindRequest {
			reqs = append(reqs, ev)
		}
		if len(reqs) == 3 {
			break
		}
	}
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	defer c.Close()
	if _, err := c.Ingest(Batch{User: uid, Seq: 0, Events: reqs}); err != nil {
		t.Fatal(err)
	}
	snap := c.Flush()
	ds := snap.Dataset()
	if ds.Len() != 3 {
		t.Fatalf("rows = %d, want 3", ds.Len())
	}
	if len(ds.Publishers) == 0 {
		t.Fatal("publishers empty: rows alias id 0")
	}
	ds.EachRow(func(i int, r classify.Row) {
		if got := ds.Publisher(r).Domain; got != reqs[i].Publisher {
			t.Fatalf("row %d publisher = %q, want %q", i, got, reqs[i].Publisher)
		}
	})
	if snap.Stats().FirstPartyVisits != 0 {
		t.Fatalf("visits = %d, want 0", snap.Stats().FirstPartyVisits)
	}
}

// TestSnapshotImmutableAcrossEpochs: a snapshot taken at epoch N keeps
// its classes and stats after later epochs mutate the live store.
func TestSnapshotImmutableAcrossEpochs(t *testing.T) {
	world, evs, _ := rig(t)
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2, ChunkRows: 64})
	defer c.Close()

	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	// First half of the users, then snapshot, then the rest.
	half := len(users) / 2
	for _, uid := range users[:half] {
		if _, err := c.Ingest(Batch{User: uid, Seq: 0, Events: evs[uid]}); err != nil {
			t.Fatal(err)
		}
	}
	snap1 := c.Flush()
	frozenStats := snap1.Stats()
	frozenClasses := make([]classify.Class, 0, snap1.Rows())
	snap1.Dataset().EachRow(func(_ int, r classify.Row) {
		frozenClasses = append(frozenClasses, r.Class)
	})

	for _, uid := range users[half:] {
		if _, err := c.Ingest(Batch{User: uid, Seq: 0, Events: evs[uid]}); err != nil {
			t.Fatal(err)
		}
	}
	snap2 := c.Flush()
	if snap2.Epoch() != snap1.Epoch()+1 {
		t.Fatalf("epochs = %d -> %d", snap1.Epoch(), snap2.Epoch())
	}
	if snap1.Stats() != frozenStats {
		t.Error("snapshot stats mutated by a later epoch")
	}
	i := 0
	snap1.Dataset().EachRow(func(_ int, r classify.Row) {
		if r.Class != frozenClasses[i] {
			t.Fatalf("row %d class changed under snapshot: %v -> %v", i, frozenClasses[i], r.Class)
		}
		i++
	})
	if snap1.Rows() >= snap2.Rows() {
		t.Fatalf("rows did not grow: %d -> %d", snap1.Rows(), snap2.Rows())
	}
}
