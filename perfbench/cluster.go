package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/cluster"
	"crossborder/internal/experiments"
	"crossborder/internal/ingest"
)

// shardNodes are the cluster workload's ring members, in merge order.
var shardNodes = []string{"shard-a", "shard-b", "shard-c", "shard-d"}

// faninInterval is the fan-in poll cadence.
const faninInterval = 250 * time.Millisecond

func shardConfig() ingest.Config { return ingest.Config{EpochEvents: epochEvents, Compress: true} }

// clusterPass replays the capture over HTTP into four ring-partitioned,
// memory-only, compressed shards while a real fan-in polls them and the
// reader queries its merged view; then flushes every shard, runs one
// fan-in round and reads all 20 artifacts from the merged view.
func clusterPass(ctx context.Context, in *inputs, ref []string) (r passResult, err error) {
	reg := cluster.NewRegistry(time.Hour, 2*time.Hour) // membership is static here
	addrs := make(map[string]string, len(shardNodes))
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	for _, node := range shardNodes {
		c := ingest.NewCollector(in.world, shardConfig())
		cleanup = append(cleanup, c.Close)
		lb, err := serve(ingest.NewServer(c, ingest.WithLimits(collectdLimits)))
		if err != nil {
			return r, err
		}
		cleanup = append(cleanup, lb.close)
		addrs[node] = lb.URL
		reg.Observe(cluster.Heartbeat{Node: node, Addr: lb.URL})
	}
	ring, err := cluster.NewRing(shardNodes, 0)
	if err != nil {
		return r, err
	}
	router, err := cluster.NewClient(ring, addrs)
	if err != nil {
		return r, err
	}
	cnt, hc, closeIdle := newCounter()
	cleanup = append(cleanup, closeIdle)
	shards := make(map[string]*ingest.Client, len(shardNodes))
	for node, addr := range addrs {
		shards[node] = &ingest.Client{Base: addr, HTTP: hc, Binary: true}
	}
	route := func(user int32) *ingest.Client { return shards[router.Owner(user)] }
	fanin := &cluster.Fanin{World: in.world, Registry: reg, Shards: shardNodes, HTTP: hc, Interval: faninInterval}
	qs, err := serve(ingest.NewQueryServer(fanin.Snapshot, fanin.Ready))
	if err != nil {
		return r, err
	}
	cleanup = append(cleanup, qs.close)
	q := &ingest.Client{Base: qs.URL, HTTP: hc}

	base := liveHeapMB()
	ready := func() bool {
		snap := fanin.Snapshot()
		return fanin.Ready() == nil && snap != nil && snap.Rows() > 0
	}
	var (
		sawRows atomic.Bool
		wg      sync.WaitGroup
		qerr    error
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.queryMs, r.lateMs, qerr = runReader(stop, ready, func(i int) error { return httpQuery(hc, qs.URL, i) })
	}()
	fanin.Start()
	t0 := time.Now()
	r.uploadMs, r.events, err = upload(in.batches, route, &sawRows)
	tLast := time.Now()
	close(stop)
	wg.Wait()
	fanin.Stop()
	if err == nil {
		err = qerr
	}
	for _, node := range shardNodes {
		if err == nil {
			_, _, err = shards[node].Flush()
		}
	}
	if err == nil {
		_, err = fanin.RefreshOnce()
	}
	tFresh := time.Now()
	var texts []string
	if err == nil {
		texts, err = fetchArtifacts(q, experiments.IDs())
	}
	r.intake, r.fresh, r.answer = tLast.Sub(t0), tFresh.Sub(tLast), time.Since(tLast)
	r.retainedMB = liveHeapMB() - base
	r.attempted, r.failed = cnt.attempted.Load(), cnt.failed.Load()
	if err != nil {
		return r, err
	}
	if rows := fanin.Snapshot().Rows(); rows != in.nEvents-in.nVisits {
		return r, fmt.Errorf("cluster: merged view holds %d rows, the capture %d requests", rows, in.nEvents-in.nVisits)
	}
	return r, checkDigests("cluster", digests(texts), ref)
}

// clusterTrace drives the cluster workload in-process: each shard's
// accept and commit, and each fan-in round's export, export decode and
// merge, are separate public calls.
func clusterTrace(ctx context.Context, seed int64, sz size, ref []string) (*Ledger, error) {
	l := newLedger()
	in, raws, err := traceInputs(ctx, l, seed, sz)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing(shardNodes, 0)
	if err != nil {
		return nil, err
	}
	shards := make(map[string]*ingest.Collector, len(shardNodes))
	for _, node := range shardNodes {
		cfg := shardConfig()
		cfg.EpochEvents = 1 << 30 // commits are driven explicitly below
		c := ingest.NewCollector(in.world, cfg)
		defer c.Close()
		shards[node] = c
	}
	var merged *ingest.Snapshot
	qs := ingest.NewQueryServer(func() *ingest.Snapshot { return merged }, nil)
	exports := make(map[string]*ingest.ShardExport, len(shardNodes))
	commit := func(c *ingest.Collector) {
		l.Time("ingest.commit_s", func() { c.Flush() })
		l.Count("ingest.commits", 1)
	}
	// round is one fan-in poll: export and decode every shard whose epoch
	// moved (an unchanged shard answers 304), then merge if any did.
	round := func() (err error) {
		l.Parent("cluster.refresh_s", func() {
			changed := false
			for _, node := range shardNodes {
				c := shards[node]
				if ex := exports[node]; ex != nil && ex.Epoch() == c.Snapshot().Epoch() {
					continue
				}
				var data []byte
				l.Time("ingest.export_s", func() { data, _, err = c.EncodeSnapshot() })
				if err != nil {
					return
				}
				l.Count("ingest.export_bytes", int64(len(data)))
				var ex *ingest.ShardExport
				l.Time("ingest.decode_export_s", func() { ex, err = ingest.DecodeShardExport(data) })
				if err != nil {
					return
				}
				exports[node], changed = ex, true
			}
			if !changed {
				return
			}
			list := make([]*ingest.ShardExport, len(shardNodes))
			for i, node := range shardNodes {
				list[i] = exports[node]
			}
			l.Time("ingest.merge_s", func() { merged, err = ingest.MergeExports(in.world, list, 0) })
			l.Count("cluster.refreshes", 1)
		})
		return err
	}
	for i, raw := range raws {
		var b ingest.Batch
		l.Time("ingest.decode_s", func() { b, err = ingest.DecodeBinary(raw) })
		c := shards[ring.Owner(b.User)]
		if err == nil {
			l.Time("ingest.accept_s", func() { _, err = c.Ingest(b) })
		}
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if c.PendingEvents() >= epochEvents {
			commit(c)
		}
		if i%traceRoundEvery == 0 {
			if err := round(); err != nil {
				return nil, err
			}
		}
		if i%traceQueryEvery == 0 && merged != nil && merged.Rows() > 0 {
			l.Time("ingest.query_s", func() { err = handlerQuery(qs, i/traceQueryEvery) })
			if err != nil {
				return nil, err
			}
		}
	}
	for _, node := range shardNodes {
		if shards[node].PendingEvents() > 0 {
			commit(shards[node])
		}
	}
	if err := round(); err != nil {
		return nil, err
	}
	var su *experiments.Suite
	l.Time("scenario.inventory_s", func() { su = merged.Suite() })
	texts, err := traceArtifacts(ctx, l, su)
	l.Stop()
	if err != nil {
		return nil, err
	}
	l.Count("classify.rows", int64(merged.Rows()))
	l.Count("store.resident_bytes", merged.Dataset().Store.Footprint().ResidentBytes)
	return l, checkDigests("cluster", digests(texts), ref)
}
