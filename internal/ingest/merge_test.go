package ingest

import (
	"strings"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/scenario"
)

// shardEvents splits the recorded streams into n disjoint per-shard
// maps (users assigned round-robin — any disjoint partition satisfies
// the merge contract; ring-based assignment is the cluster package's
// concern).
func shardEvents(evs map[int32][]Event, n int) []map[int32][]Event {
	parts := make([]map[int32][]Event, n)
	for i := range parts {
		parts[i] = make(map[int32][]Event)
	}
	for uid, stream := range evs {
		parts[int(uid)%n][uid] = stream
	}
	return parts
}

// exportShards ingests each partition into its own collector (varied
// configs: epoch sizes, chunk sizes, one compressed shard) and returns
// the decoded /v1/snapshot exports. The first old exports are
// rewritten through withRetiredMeta, as shards still running a build
// that wrote the retired fields (forged flow maps included) would
// serve them during a rolling upgrade.
func exportShards(t *testing.T, world *scenario.Scenario, parts []map[int32][]Event, old int) []*ShardExport {
	t.Helper()
	cfgs := []Config{
		{EpochEvents: 149, Workers: 2, ChunkRows: 64},
		{EpochEvents: 1 << 20, Workers: 1},
		{EpochEvents: 307, Workers: 3, ChunkRows: 128, Compress: true},
	}
	exports := make([]*ShardExport, len(parts))
	for i, part := range parts {
		c := NewCollector(world, cfgs[i%len(cfgs)])
		ingestAll(t, c, part, 197)
		data, epoch, err := c.EncodeSnapshot()
		if err != nil {
			t.Fatalf("shard %d: encode snapshot: %v", i, err)
		}
		if epoch != c.Snapshot().Epoch() {
			t.Fatalf("shard %d: export epoch %d, snapshot epoch %d", i, epoch, c.Snapshot().Epoch())
		}
		if i < old {
			data = withRetiredMeta(t, data, c.Snapshot().Dataset())
		}
		ex, err := DecodeShardExport(data)
		if err != nil {
			t.Fatalf("shard %d: decode export: %v", i, err)
		}
		if ex.Epoch() != epoch || ex.Rows() != c.Snapshot().Rows() {
			t.Fatalf("shard %d: export says epoch %d rows %d, collector epoch %d rows %d",
				i, ex.Epoch(), ex.Rows(), epoch, c.Snapshot().Rows())
		}
		c.Close()
		exports[i] = ex
	}
	return exports
}

// TestMergeExportsMatchesRescan is the fan-in merge contract: merging
// per-shard exports yields a snapshot whose dataset, stats, and flow
// maps equal a single collector over the union of the same events —
// and whose flow maps equal a full core.Analyze rescan of the merged
// dataset. One export carries the retired meta fields with forged flow
// counts (a shard on an older build): the merge must not read them.
func TestMergeExportsMatchesRescan(t *testing.T) {
	world, evs, _ := rig(t)

	parts := shardEvents(evs, 3)
	exports := exportShards(t, world, parts, 1)
	merged, err := MergeExports(world, exports, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: one collector over the union.
	single := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 2})
	defer single.Close()
	ref := ingestAll(t, single, evs, 197)

	if merged.Rows() != ref.Rows() {
		t.Fatalf("merged %d rows, single collector %d", merged.Rows(), ref.Rows())
	}
	if merged.Epoch() != exports[0].Epoch()+exports[1].Epoch()+exports[2].Epoch() {
		t.Errorf("merged epoch %d is not the sum of shard epochs", merged.Epoch())
	}
	if ms, rs := merged.Stats(), ref.Stats(); ms != rs {
		t.Errorf("merged stats %+v, single-collector stats %+v", ms, rs)
	}
	if st := classify.ComputeStats(merged.Dataset()); merged.Stats() != st {
		t.Errorf("merged stats %+v disagree with ComputeStats over the merged dataset %+v", merged.Stats(), st)
	}

	// The flow maps equal a full rescan of the merged dataset, and the
	// single collector's view.
	assertFlowsRescan(t, "merged", merged)
	if !merged.TruthAnalysis().Equal(ref.TruthAnalysis()) ||
		!merged.IPMapAnalysis().Equal(ref.IPMapAnalysis()) ||
		!merged.MaxMindAnalysis().Equal(ref.MaxMindAnalysis()) {
		t.Error("merged flow maps differ from the single-collector flow maps")
	}

	// Classification multisets agree row for row with the reference
	// (order may be a permutation across shards).
	count := func(s *Snapshot) map[classify.Class]int {
		m := make(map[classify.Class]int)
		s.Dataset().EachRow(func(_ int, r classify.Row) { m[r.Class]++ })
		return m
	}
	mc, rc := count(merged), count(ref)
	for cl, n := range rc {
		if mc[cl] != n {
			t.Errorf("class %v: merged %d rows, single collector %d", cl, mc[cl], n)
		}
	}
}

// TestMergeExportsRefusals: the merge rejects overlapping user
// partitions and exports whose rows name ids outside their own tables
// instead of silently producing a wrong global view.
func TestMergeExportsRefusals(t *testing.T) {
	world, evs, _ := rig(t)
	parts := shardEvents(evs, 2)
	exports := exportShards(t, world, parts[:2], 0)

	// Same shard twice = overlapping users.
	if _, err := MergeExports(world, []*ShardExport{exports[0], exports[0]}, 1); err == nil ||
		!strings.Contains(err.Error(), "more than one shard") {
		t.Errorf("overlapping shards accepted (err=%v)", err)
	}

	// Forged exports: a table cut short, its rows left as they are.
	c := NewCollector(world, Config{EpochEvents: 1 << 20, Workers: 1})
	defer c.Close()
	ingestAll(t, c, parts[0], 197)
	data, _, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*ckptMeta)
	}{
		{"FQDN table short", func(m *ckptMeta) { m.FQDNs = m.FQDNs[:1] }},
		{"country table short", func(m *ckptMeta) { m.Countries = m.Countries[:1] }},
		{"publisher table short", func(m *ckptMeta) { m.Publishers = m.Publishers[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := DecodeShardExport(rewriteMeta(data, tc.edit))
			if err != nil {
				t.Fatalf("decode forged export: %v", err)
			}
			if _, err := MergeExports(world, []*ShardExport{ex}, 1); err == nil ||
				!strings.Contains(err.Error(), "outside the source's") {
				t.Errorf("forged export merged (err=%v)", err)
			}
		})
	}
}

// TestMergeSingleExportIsIdentity: a one-shard "cluster" merges to the
// shard's own view.
func TestMergeSingleExportIsIdentity(t *testing.T) {
	world, evs, _ := rig(t)
	c := NewCollector(world, Config{EpochEvents: 331, Workers: 2, ChunkRows: 64})
	defer c.Close()
	snap := ingestAll(t, c, evs, 197)
	data, _, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := DecodeShardExport(data)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeExports(world, []*ShardExport{ex}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Rows() != snap.Rows() || merged.Stats() != snap.Stats() {
		t.Fatalf("identity merge changed the view: rows %d->%d stats %+v->%+v",
			snap.Rows(), merged.Rows(), snap.Stats(), merged.Stats())
	}
	if !merged.TruthAnalysis().Equal(snap.TruthAnalysis()) {
		t.Error("identity merge changed the truth flow map")
	}
}
