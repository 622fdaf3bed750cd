package cluster

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// Fanin is the merge tier: it polls every known shard's /v1/snapshot
// export, caches the last good export per shard, and whenever any
// shard's epoch advances, merges the cached exports into one global
// copy-on-write Snapshot (ingest.MergeExports) published behind an
// atomic pointer — exactly the shape the collector uses for its own
// epoch snapshots, so an ingest.QueryServer over Snapshot() serves the
// full /v1/* query API from the merged view without ever blocking a
// pull or a merge.
//
// Failure model: a shard that stops answering keeps contributing its
// last pulled export — the merged view is the freshest consistent
// union available, never a partial one that silently dropped a
// partition. A per-shard circuit breaker (BreakerFails,
// BreakerCooldown) stops hammering a shard that keeps failing and
// probes it after a cooldown; Health and Degraded report which shards
// are being served from stale cached data, without ever flipping the
// tier un-Ready. Readiness (Ready) holds off until every expected shard
// has contributed at least once, so a cluster warming up reports "not
// ready: waiting for shard X" instead of serving artifacts over a
// subset of users.
type Fanin struct {
	// World is the shared synthetic world; exports built for a
	// different seed/scale are refused by the merge.
	World *scenario.Scenario
	// Registry resolves shard names to addresses and liveness.
	Registry *Registry
	// Shards are the expected shard names (the ring topology). Empty
	// means "merge whoever has reported" — readiness then needs just
	// one export.
	Shards []string
	// HTTP overrides the pull transport (nil = 10s timeout client;
	// snapshot bodies are large).
	HTTP *http.Client
	// Workers bounds the merge fixpoint parallelism (0 = GOMAXPROCS).
	Workers int
	// Interval is the poll cadence of the Start loop (0 = 2s).
	Interval time.Duration
	// BreakerFails is how many consecutive pull failures open a shard's
	// circuit (0 = 3). While open, the shard is not pulled — its cached
	// export keeps contributing to the merged view (degraded serving) —
	// until BreakerCooldown (0 = 10s) elapses and a half-open probe
	// tests recovery.
	BreakerFails    int
	BreakerCooldown time.Duration
	// StaleAfter is how long without a successful pull before a shard's
	// cached contribution counts as stale in Health/Degraded (0 = 30s).
	StaleAfter time.Duration
	// Clock overrides time.Now for the breaker and staleness clocks
	// (nil = time.Now). Tests inject a fake to step through cooldowns.
	Clock func() time.Time

	mu       sync.Mutex
	cache    map[string]*shardCache
	merged   map[string]int // shard -> epoch folded into the published snapshot
	pullErr  map[string]error
	breakers map[string]*breaker

	snap atomic.Pointer[ingest.Snapshot]
	// remerges counts published snapshots (each is one full re-merge of
	// the cached shard exports).
	remerges atomic.Uint64
	// bTrips / bProbes count circuit-open transitions and half-open
	// probes across all shards.
	bTrips  atomic.Uint64
	bProbes atomic.Uint64

	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// shardCache is the last successfully pulled export of one shard.
type shardCache struct {
	epoch  int
	etag   string
	export *ingest.ShardExport
}

func (f *Fanin) client() *http.Client {
	if f.HTTP != nil {
		return f.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// Snapshot returns the latest merged view (nil before the first merge).
// Safe for concurrent use; pair it with ingest.NewQueryServer.
func (f *Fanin) Snapshot() *ingest.Snapshot { return f.snap.Load() }

// Ready reports nil once a merged snapshot covering every expected
// shard is published, and otherwise the reason the view is incomplete.
func (f *Fanin) Ready() error {
	if f.snap.Load() == nil {
		return fmt.Errorf("cluster: no merged snapshot published yet")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var missing []string
	for _, s := range f.Shards {
		if _, ok := f.merged[s]; !ok {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("cluster: waiting for shard(s) %s", strings.Join(missing, ", "))
	}
	return nil
}

// exportPresizeCap caps the buffer pull sizes from an export's
// Content-Length. Exports have no size limit: a larger body reads on
// past it.
const exportPresizeCap = 64 << 20

// pull fetches one shard's export if its epoch advanced, updating the
// cache. A 304 (If-None-Match hit) or a pull error leaves the cached
// export in place.
func (f *Fanin) pull(node, addr string) error {
	f.mu.Lock()
	var etag string
	if c := f.cache[node]; c != nil {
		etag = c.etag
	}
	f.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet, addr+"/v1/snapshot", nil)
	if err != nil {
		return err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	raw, err := ingest.ReadBody(resp.Body, resp.ContentLength, exportPresizeCap)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: snapshot from %s: %s", node, resp.Status)
	}
	ex, err := ingest.DecodeShardExport(raw)
	if err != nil {
		return fmt.Errorf("cluster: shard %s: %w", node, err)
	}
	f.mu.Lock()
	f.cache[node] = &shardCache{epoch: ex.Epoch(), etag: resp.Header.Get("ETag"), export: ex}
	f.mu.Unlock()
	return nil
}

// RefreshOnce runs one poll + merge round: pull every registry member
// whose heartbeat is not dead, and re-merge when any cached epoch is
// ahead of the published view. It returns whether a new snapshot was
// published, and the first pull error (pull errors do not abort the
// round — the remaining shards still refresh; a merge error does).
func (f *Fanin) RefreshOnce() (published bool, err error) {
	f.mu.Lock()
	if f.cache == nil {
		f.cache = make(map[string]*shardCache)
		f.pullErr = make(map[string]error)
	}
	f.mu.Unlock()

	var firstErr error
	for _, m := range f.Registry.Members() {
		if m.Addr == "" {
			continue
		}
		if m.State == StateDead {
			// Serve its last export; re-pull resumes when it returns.
			continue
		}
		if !f.admitPull(m.Node) {
			// Circuit open: skip the pull, keep serving the cached
			// export. The breaker re-admits a probe after its cooldown.
			continue
		}
		err := f.pull(m.Node, m.Addr)
		f.recordPull(m.Node, err)
		f.mu.Lock()
		f.pullErr[m.Node] = err
		f.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Merge when any cached shard is ahead of the published view.
	f.mu.Lock()
	nodes := make([]string, 0, len(f.cache))
	dirty := len(f.cache) != len(f.merged)
	for n, c := range f.cache {
		nodes = append(nodes, n)
		if f.merged[n] != c.epoch {
			dirty = true
		}
	}
	if !dirty || len(nodes) == 0 {
		f.mu.Unlock()
		return false, firstErr
	}
	// Fixed merge order (shard name) keeps the merged dataset
	// reproducible byte for byte; the served artifacts are
	// order-invariant regardless.
	sort.Strings(nodes)
	exports := make([]*ingest.ShardExport, len(nodes))
	epochs := make(map[string]int, len(nodes))
	for i, n := range nodes {
		exports[i] = f.cache[n].export
		epochs[n] = f.cache[n].epoch
	}
	f.mu.Unlock()

	snap, err := ingest.MergeExports(f.World, exports, f.Workers)
	if err != nil {
		return false, err
	}
	f.snap.Store(snap)
	f.remerges.Add(1)
	f.mu.Lock()
	f.merged = epochs
	f.mu.Unlock()
	return true, firstErr
}

// Remerges returns how many merged snapshots have been published.
func (f *Fanin) Remerges() uint64 { return f.remerges.Load() }

// Start launches the poll loop. Stop ends it.
func (f *Fanin) Start() {
	f.once.Do(func() {
		f.stop = make(chan struct{})
		f.done = make(chan struct{})
		interval := f.Interval
		if interval <= 0 {
			interval = 2 * time.Second
		}
		go func() {
			defer close(f.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			f.RefreshOnce()
			for {
				select {
				case <-f.stop:
					return
				case <-t.C:
					f.RefreshOnce()
				}
			}
		}()
	})
}

// Stop ends the poll loop and waits for it to exit. Safe without Start
// and more than once.
func (f *Fanin) Stop() {
	if f.stop == nil {
		return
	}
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
}
