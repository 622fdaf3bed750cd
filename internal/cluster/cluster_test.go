package cluster

import (
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// The shared cluster test rig: one small world and its captured upload
// stream (same params as the ingest package's rig).
var (
	crigOnce  sync.Once
	crigWorld *scenario.Scenario
	crigEvs   map[int32][]ingest.Event
)

func crig(t *testing.T) (*scenario.Scenario, map[int32][]ingest.Event) {
	t.Helper()
	crigOnce.Do(func() {
		crigWorld = scenario.BuildWorld(scenario.Params{Seed: 11, Scale: 0.02, VisitsPerUser: 8})
		crigEvs = ingest.RecordSimulation(crigWorld, 8, 3)
	})
	return crigWorld, crigEvs
}

// shard is one in-process collector + its HTTP server.
type shard struct {
	node string
	c    *ingest.Collector
	srv  *httptest.Server
}

func newShard(t *testing.T, world *scenario.Scenario, node string, cfg ingest.Config) *shard {
	t.Helper()
	c := ingest.NewCollector(world, cfg)
	if cfg.DataDir != "" {
		if _, err := c.Recover(); err != nil {
			t.Fatalf("shard %s: recover: %v", node, err)
		}
	}
	return &shard{node: node, c: c, srv: httptest.NewServer(ingest.NewServer(c))}
}

func (s *shard) close() {
	s.srv.Close()
	s.c.Close()
}

// singleReference ingests the union of all events into one collector
// and returns its snapshot — the view a cluster must reproduce.
func singleReference(t *testing.T, world *scenario.Scenario, evs map[int32][]ingest.Event) *ingest.Snapshot {
	t.Helper()
	c := ingest.NewCollector(world, ingest.Config{EpochEvents: 1 << 20, Workers: 2})
	defer c.Close()
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	for _, uid := range users {
		if _, err := c.Ingest(ingest.Batch{User: uid, Seq: 0, Events: evs[uid]}); err != nil {
			t.Fatal(err)
		}
	}
	return c.Flush()
}

// assertMergedEqualsReference compares a merged cluster snapshot to the
// single-collector view at the level every artifact reads.
func assertMergedEqualsReference(t *testing.T, merged, ref *ingest.Snapshot) {
	t.Helper()
	if merged.Rows() != ref.Rows() {
		t.Errorf("merged %d rows, single collector %d", merged.Rows(), ref.Rows())
	}
	if merged.Stats() != ref.Stats() {
		t.Errorf("merged stats %+v, single collector %+v", merged.Stats(), ref.Stats())
	}
	if !merged.TruthAnalysis().Equal(ref.TruthAnalysis()) ||
		!merged.IPMapAnalysis().Equal(ref.IPMapAnalysis()) ||
		!merged.MaxMindAnalysis().Equal(ref.MaxMindAnalysis()) {
		t.Error("merged flow maps differ from the single-collector flow maps")
	}
}

// TestFaninMergesAndCaches drives the merge tier end to end over HTTP:
// heartbeats register the shards, RefreshOnce pulls and merges their
// exports, unchanged shards answer 304 off the epoch ETag (no re-merge),
// and a dead shard keeps contributing its last export so the cluster
// keeps serving the full user population.
func TestFaninMergesAndCaches(t *testing.T) {
	world, evs := crig(t)
	ring, err := NewRing([]string{"c1", "c2"}, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg, clk := newTestRegistry()
	shards := map[string]*shard{
		"c1": newShard(t, world, "c1", ingest.Config{EpochEvents: 251, Workers: 2, ChunkRows: 64}),
		"c2": newShard(t, world, "c2", ingest.Config{EpochEvents: 1 << 20, Workers: 1, Compress: true}),
	}
	defer shards["c1"].close()
	defer shards["c2"].close()

	// Partition and ingest directly; hold back some of c1's users for
	// the epoch-advance round.
	parts := ring.Partition(sortedUsers(evs))
	if len(parts["c1"]) == 0 || len(parts["c2"]) == 0 {
		t.Fatalf("degenerate partition: %d/%d users", len(parts["c1"]), len(parts["c2"]))
	}
	held := parts["c1"][len(parts["c1"])/2:]
	feed(t, shards["c1"].c, evs, parts["c1"][:len(parts["c1"])/2])
	feed(t, shards["c2"].c, evs, parts["c2"])
	shards["c1"].c.Flush()
	shards["c2"].c.Flush()

	for n, s := range shards {
		reg.Observe(Heartbeat{Node: n, Addr: s.srv.URL, Epoch: uint64(s.c.Snapshot().Epoch())})
	}

	fanin := &Fanin{World: world, Registry: reg, Shards: []string{"c1", "c2"}, Workers: 2}
	if err := fanin.Ready(); err == nil {
		t.Fatal("fan-in reported ready before any merge")
	}
	published, err := fanin.RefreshOnce()
	if err != nil || !published {
		t.Fatalf("first refresh: published=%v err=%v", published, err)
	}
	if err := fanin.Ready(); err != nil {
		t.Fatalf("fan-in not ready after merging both shards: %v", err)
	}
	snap1 := fanin.Snapshot()
	if snap1.Rows() == 0 {
		t.Fatal("merged snapshot is empty")
	}

	// No epoch advanced: the round is all 304s and publishes nothing.
	if published, err = fanin.RefreshOnce(); err != nil || published {
		t.Fatalf("idle refresh re-published: published=%v err=%v", published, err)
	}
	if fanin.Snapshot() != snap1 {
		t.Fatal("idle refresh replaced the snapshot")
	}

	// c1 advances an epoch: the next round re-merges.
	feed(t, shards["c1"].c, evs, held)
	shards["c1"].c.Flush()
	reg.Observe(Heartbeat{Node: "c1", Addr: shards["c1"].srv.URL})
	if published, err = fanin.RefreshOnce(); err != nil || !published {
		t.Fatalf("refresh after epoch advance: published=%v err=%v", published, err)
	}
	grown := fanin.Snapshot()
	if grown.Rows() <= snap1.Rows() {
		t.Fatalf("merged rows did not grow: %d -> %d", snap1.Rows(), grown.Rows())
	}

	// Kill c2: its last export keeps the merged view whole, and the
	// query tier keeps serving.
	shards["c2"].srv.Close()
	clk.advance(time.Minute)
	if m, _ := reg.Lookup("c2"); m.State != StateDead {
		t.Fatalf("c2 state %v after a silent minute, want dead", m.State)
	}
	if _, err = fanin.RefreshOnce(); err != nil {
		t.Fatalf("refresh with a dead shard errored: %v", err)
	}
	if fanin.Snapshot().Rows() != grown.Rows() || fanin.Ready() != nil {
		t.Error("dead shard dropped rows from the merged view")
	}

	// The full cluster view equals one collector over the union.
	assertMergedEqualsReference(t, fanin.Snapshot(), singleReference(t, world, evs))
}

func sortedUsers(evs map[int32][]ingest.Event) []int32 {
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	return users
}

// feed ingests the listed users' full streams directly (no HTTP).
func feed(t *testing.T, c *ingest.Collector, evs map[int32][]ingest.Event, users []int32) {
	t.Helper()
	for _, uid := range users {
		if _, err := c.Ingest(ingest.Batch{User: uid, Seq: 0, Events: evs[uid]}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClusterClientFailoverExactlyOnce is the dead-shard scenario: a
// durable shard is killed mid-replay and restarted at a NEW address;
// the ring-aware client rides through — its in-flight upload fails, it
// re-resolves the shard's address from the registry, and continues the
// user's stream where it left off. Retransmitted batches dedup against
// the recovered sequence numbers (exactly-once per user), and the final
// merged cluster view equals an uninterrupted single collector over
// the union of events.
func TestClusterClientFailoverExactlyOnce(t *testing.T) {
	world, evs := crig(t)
	nodes := []string{"c1", "c2", "c3"}
	ring, err := NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg, clk := newTestRegistry()
	regSrv := httptest.NewServer(reg.Handler())
	defer regSrv.Close()

	dir := t.TempDir()
	mk := func(node string) *shard {
		cfg := ingest.Config{EpochEvents: 251, Workers: 2, ChunkRows: 64}
		if node == "c2" {
			// The victim journals every accepted batch synchronously, so
			// kill -9 loses nothing.
			cfg.DataDir, cfg.WALSync = dir, "always"
		}
		return newShard(t, world, node, cfg)
	}
	shards := map[string]*shard{}
	addrs := map[string]string{}
	for _, n := range nodes {
		shards[n] = mk(n)
		addrs[n] = shards[n].srv.URL
		reg.Observe(Heartbeat{Node: n, Addr: shards[n].srv.URL})
	}
	defer func() {
		for _, s := range shards {
			s.close()
		}
	}()

	cl, err := NewClient(ring, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Registries = []string{regSrv.URL}
	cl.Retry = &ingest.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	cl.RetargetDelay = time.Millisecond

	users := sortedUsers(evs)
	parts := ring.Partition(users)
	victimUsers := parts["c2"]
	if len(victimUsers) < 2 {
		t.Fatalf("victim shard owns %d users; rig too small for the scenario", len(victimUsers))
	}

	// Phase 1: upload the first half of every user's stream.
	const batchSize = 97
	upload := func(uid int32, from, to int) {
		t.Helper()
		stream := evs[uid]
		if to > len(stream) {
			to = len(stream)
		}
		for off := from; off < to; off += batchSize {
			hi := off + batchSize
			if hi > to {
				hi = to
			}
			if _, err := cl.Upload(ingest.Batch{User: uid, Seq: uint64(off), Events: stream[off:hi]}); err != nil {
				t.Fatalf("user %d seq %d: %v", uid, off, err)
			}
		}
	}
	for _, uid := range users {
		upload(uid, 0, len(evs[uid])/2)
	}

	// Kill the victim mid-replay: the process dies (server gone,
	// collector closed), the registry ages it to dead.
	shards["c2"].close()
	clk.advance(time.Minute)
	if m, _ := reg.Lookup("c2"); m.State != StateDead {
		t.Fatalf("victim state %v, want dead", m.State)
	}

	// Restart at a NEW address on the same data dir; recovery replays
	// the journal, then the shard heartbeats its new home.
	shards["c2"] = mk("c2")
	if shards["c2"].srv.URL == addrs["c2"] {
		t.Fatalf("restarted shard reused address %s; the test needs a move", addrs["c2"])
	}
	reg.Observe(Heartbeat{Node: "c2", Addr: shards["c2"].srv.URL})

	// A retransmit of an already-journaled batch must dedup against the
	// recovered sequence numbers — the lost-response case, exactly-once.
	ruid := victimUsers[0]
	half := len(evs[ruid]) / 2
	firstLen := batchSize
	if firstLen > half {
		firstLen = half
	}
	res, err := cl.Upload(ingest.Batch{User: ruid, Seq: 0, Events: evs[ruid][:firstLen]})
	if err != nil {
		t.Fatalf("retransmit after restart: %v", err)
	}
	if res.Accepted != 0 || res.Duplicate != firstLen {
		t.Fatalf("retransmit applied twice: accepted %d, duplicate %d (want 0/%d)", res.Accepted, res.Duplicate, firstLen)
	}

	// Phase 2: finish every stream. The victim's users flow to the new
	// address via registry retargeting (the stale cached address fails
	// first).
	for _, uid := range users {
		upload(uid, len(evs[uid])/2, len(evs[uid]))
	}
	if cl.Addr("c2") != shards["c2"].srv.URL {
		t.Errorf("client did not retarget: still %s", cl.Addr("c2"))
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Merge the cluster and compare against an uninterrupted run.
	var exports []*ingest.ShardExport
	for _, n := range nodes {
		data, _, err := shards[n].c.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ingest.DecodeShardExport(data)
		if err != nil {
			t.Fatal(err)
		}
		exports = append(exports, ex)
	}
	merged, err := ingest.MergeExports(world, exports, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertMergedEqualsReference(t, merged, singleReference(t, world, evs))
}
