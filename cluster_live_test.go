package crossborder_test

import (
	"net/http/httptest"
	"testing"

	"crossborder/internal/cluster"
	"crossborder/internal/goldentest"
	"crossborder/internal/ingest"
)

// TestClusterReplayGoldenParity is the end-to-end contract of the
// multi-collector cluster: eight collectd instances each own a
// consistent-hash partition of the users, a registry tracks them via
// heartbeats, the replay routes every upload through the ring-aware
// client, and the fan-in tier merges the per-shard /v1/snapshot
// exports — yet every artifact served from the merged view is
// byte-identical to the batch crossborder.New study over the union of
// the same events (and hence to a single-collector run, which
// TestLiveReplayGoldenParity pins to the same bytes).
func TestClusterReplayGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden cluster replay is not short")
	}
	const nShard = 8
	g := goldentest.Load(t)

	// Eight in-process collectors with deliberately varied configs —
	// epoch cadence, chunk size, compression, worker count all differ
	// per shard, and none of it may leak into the merged artifacts.
	nodes := make([]string, nShard)
	shards := make(map[string]*ingest.Collector, nShard)
	addrs := make(map[string]string, nShard)
	reg := cluster.NewRegistry(0, 0)
	for i := 0; i < nShard; i++ {
		node := string(rune('a'+i)) + "-shard"
		nodes[i] = node
		cfg := ingest.Config{EpochEvents: 977 + 331*i, Workers: 1 + i%3, ChunkRows: 256 << (i % 3)}
		if i%2 == 1 {
			cfg.Compress = true
		}
		c := ingest.NewCollector(g.World, cfg)
		defer c.Close()
		srv := httptest.NewServer(ingest.NewServer(c))
		defer srv.Close()
		shards[node] = c
		addrs[node] = srv.URL
		reg.Observe(cluster.Heartbeat{Node: node, Addr: srv.URL})
	}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the captured streams across the cluster: users hash to
	// shards, one uploader per shard.
	cl, err := cluster.NewClient(ring, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Binary = true
	stats, err := cl.Replay(g.Events, 768)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, evs := range g.Events {
		total += len(evs)
	}
	if stats.Events != total {
		t.Fatalf("replay uploaded %d of %d events", stats.Events, total)
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Every shard must own at least one user, or the "partitioned"
	// claim is vacuous at this scale.
	for _, node := range nodes {
		if shards[node].Snapshot().Rows() == 0 {
			t.Fatalf("shard %s received no rows; partitioning is degenerate", node)
		}
	}

	// Fan-in: pull + merge all eight exports, then serve the merged
	// snapshot through the same query API a single collector mounts.
	fanin := &cluster.Fanin{World: g.World, Registry: reg, Shards: nodes, Workers: 2}
	if published, err := fanin.RefreshOnce(); err != nil || !published {
		t.Fatalf("fan-in refresh: published=%v err=%v", published, err)
	}
	if err := fanin.Ready(); err != nil {
		t.Fatal(err)
	}
	qsrv := httptest.NewServer(ingest.NewQueryServer(fanin.Snapshot, fanin.Ready))
	defer qsrv.Close()
	qcl := &ingest.Client{Base: qsrv.URL}
	g.Check(t, qcl, "cluster")
	// The merged /v1/stats dataset block equals the batch Table 1.
	g.CheckStats(t, qcl, "cluster")
}
