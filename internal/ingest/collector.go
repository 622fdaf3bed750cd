package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/browser"
	"crossborder/internal/chaos"
	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/ingest/wal"
	"crossborder/internal/netsim"
	"crossborder/internal/rtb"
	"crossborder/internal/scenario"
	"crossborder/internal/webgraph"
)

// Validation and sequencing errors. The HTTP layer maps ErrSequenceGap
// to 409 Conflict (the client must re-send the missing run first) and
// the rest to 400 Bad Request.
var (
	ErrUnknownUser      = errors.New("ingest: unknown user id")
	ErrUnknownPublisher = errors.New("ingest: unknown publisher domain")
	ErrBadEvent         = errors.New("ingest: malformed event")
	ErrSequenceGap      = errors.New("ingest: sequence gap")
	ErrClosed           = errors.New("ingest: collector closed")
)

// Config tunes a Collector.
type Config struct {
	// EpochEvents is the epoch commit threshold: once at least this many
	// accepted events are pending, the next upload commits them as one
	// epoch. 0 means 1<<15. Epoch size never changes the final dataset,
	// only the granularity of snapshots.
	EpochEvents int
	// Workers sizes the classification shard set and the fixpoint pool
	// (0 = GOMAXPROCS). Any value yields the same dataset.
	Workers int
	// ChunkRows overrides the live store's rows per chunk (0 = the
	// columnar default; tests use small values to exercise multi-chunk
	// snapshots).
	ChunkRows int
	// Compress keeps sealed chunks of the live store as compressed
	// codec blocks (classify.NewMemStoreCompressed): long-running
	// collectors stop paying full-width memory for cold epochs, and
	// epoch snapshots share the compressed blocks by reference. The
	// dataset and every served artifact are identical either way.
	Compress bool
	// DataDir makes the collector durable: accepted batches journal to
	// a write-ahead log and FlushCheckpoint writes epoch checkpoints
	// under this directory, so a crashed collector recovers its exact
	// state via Recover. Empty (the default) keeps the collector
	// memory-only. A durable collector is NOT ready at construction —
	// Recover must run first.
	DataDir string
	// WALSync picks the journal fsync policy: "always" syncs every
	// append (an acknowledged upload survives kill -9), "interval"
	// (default) syncs in the background every WALSyncInterval, "none"
	// leaves syncing to the OS. See wal.ParsePolicy.
	WALSync string
	// WALSyncInterval is the background sync cadence under
	// WALSync="interval" (0 = 100ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes caps a journal segment before rotation
	// (0 = 64 MiB).
	WALSegmentBytes int64
	// CheckpointBytes, when > 0, cuts a checkpoint automatically once
	// the uncovered WAL (journaled record bytes not yet covered by a
	// checkpoint) exceeds this threshold — bounding recovery time under
	// sustained ingest instead of checkpointing only on flush and
	// shutdown. An auto-checkpoint failure never fails the triggering
	// upload; it is recorded and surfaced via /v1/stats.
	CheckpointBytes int64
	// FS overrides the filesystem under the WAL and checkpoint writer
	// (default chaos.OS, the real one). The chaos harness injects
	// short writes, fsync failures, and torn renames through it.
	FS chaos.FS
}

// fs returns the configured filesystem (the real one by default).
func (c Config) fs() chaos.FS {
	if c.FS != nil {
		return c.FS
	}
	return chaos.OS
}

func (c Config) withDefaults() Config {
	if c.EpochEvents <= 0 {
		c.EpochEvents = 1 << 15
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// EpochStat records one committed epoch.
type EpochStat struct {
	Epoch  int   `json:"epoch"`
	Rows   int   `json:"rows"`   // cumulative dataset rows after the epoch
	Events int   `json:"events"` // events committed in the epoch (visits + requests)
	Flips  int   `json:"flips"`  // settled rows reclassified by this epoch
	At     int64 `json:"at"`     // unix seconds of the commit
}

// Collector is the live ingestion service: it validates and
// deduplicates uploads, classifies them through per-worker shards,
// merges them into a growing columnar dataset on epoch boundaries,
// keeps the semi-stage fixpoint and the paper's aggregates current
// incrementally, and publishes an immutable Snapshot per epoch.
//
// Ingest and Flush serialize on an internal mutex; Snapshot is
// wait-free (an atomic pointer load), so queries never block ingestion
// and always observe a complete epoch.
type Collector struct {
	world *scenario.Scenario
	cfg   Config
	users map[int32]*browser.User
	pubs  map[string]*webgraph.Publisher

	mu      sync.Mutex
	nextSeq map[int32]uint64
	pending map[int32][]Event
	// pendingN mirrors the pending event count; it is only written under
	// mu but read atomically by the lock-free query path.
	pendingN atomic.Int64
	sc       *classify.ShardedCollector
	merger   *classify.Merger
	store    *classify.MemStore
	semi     *classify.LiveSemi
	userSet  map[int32]struct{}
	fqdnSet  map[uint32]struct{}
	truthA   *core.Analysis
	ipmapA   *core.Analysis
	maxmindA *core.Analysis
	epochs   []EpochStat
	closed   bool
	// internClone caches the last published interner clone; reused while
	// no new FQDN interns (see buildSnapshot).
	internClone    *classify.Interner
	internCloneLen int

	snap atomic.Pointer[Snapshot]

	// Durability state (nil / zero for a memory-only collector). walErr
	// poisons ingestion after a journal failure: the WAL tail may be
	// torn, so acknowledging further uploads would promise durability
	// the journal can no longer deliver.
	wal    *wal.WAL
	walErr error
	// segs lists every published block segment in chunk order: those
	// the newest checkpoint names plus any whose checkpoint failed to
	// publish. The next checkpoint names these plus one new segment for
	// the chunks sealed since.
	segs []ckptSeg
	// walSinceCkpt counts journaled record bytes not yet covered by a
	// checkpoint (reset when one is written); Config.CheckpointBytes
	// triggers auto-checkpoints off it. lastCkptBytes (the bytes the
	// most recent checkpoint wrote: checkpoint file plus new block
	// segment) and lastCkptErr describe the most recent checkpoint
	// attempt. All three are written under mu but read atomically by
	// the lock-free /v1/stats path.
	walSinceCkpt  atomic.Int64
	lastCkptBytes atomic.Int64
	lastCkptErr   atomic.Pointer[string]
	// ready gates uploads: memory-only collectors are born ready,
	// durable ones flip ready when Recover completes. draining gates
	// uploads during graceful shutdown. The rec* counters feed the
	// /readyz recovery-progress body without taking mu.
	ready        atomic.Bool
	draining     atomic.Bool
	recCkptEpoch atomic.Int64
	recSegTotal  atomic.Int64
	recSegDone   atomic.Int64
	recRecords   atomic.Int64

	started time.Time
	// metrics counters (atomic: the /metrics handler reads them without
	// the ingest lock).
	mBatches   atomic.Int64
	mEvents    atomic.Int64
	mDupEvents atomic.Int64
	mSeqGaps   atomic.Int64
	mRejected  atomic.Int64
}

// NewCollector wires a collector over a world built by
// scenario.BuildWorld with the same Seed/Scale the uploading clients
// simulate. The world is read-only to the collector; several collectors
// may share one.
func NewCollector(world *scenario.Scenario, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		world:    world,
		cfg:      cfg,
		users:    make(map[int32]*browser.User, len(world.Users)),
		pubs:     make(map[string]*webgraph.Publisher, len(world.Graph.Publishers)),
		nextSeq:  make(map[int32]uint64),
		pending:  make(map[int32][]Event),
		userSet:  make(map[int32]struct{}),
		fqdnSet:  make(map[uint32]struct{}),
		truthA:   core.NewAnalysis(),
		ipmapA:   core.NewAnalysis(),
		maxmindA: core.NewAnalysis(),
		started:  time.Now(),
	}
	for _, u := range world.Users {
		c.users[int32(u.ID)] = u
	}
	for _, p := range world.Graph.Publishers {
		c.pubs[p.Domain] = p
	}
	c.sc = classify.NewShardedCollector(world.Graph, world.EasyList, world.EasyPrivacy, world.Start, cfg.Workers)
	var sink *classify.MemStore
	if cfg.Compress {
		sink = classify.NewMemStoreCompressed(cfg.ChunkRows)
	} else if cfg.ChunkRows > 0 {
		sink = classify.NewMemStoreChunked(cfg.ChunkRows)
	} else {
		sink = classify.NewMemStore()
	}
	c.store = sink
	c.merger = classify.NewMerger(world.Start, sink, 0)
	c.semi = classify.NewLiveSemi(c.merger.Dataset(), cfg.Workers)
	c.snap.Store(c.buildSnapshot(nil, 0, nil))
	c.ready.Store(cfg.DataDir == "")
	return c
}

// World returns the collector's read-only world scenario.
func (c *Collector) World() *scenario.Scenario { return c.world }

// Close releases the fixpoint worker pool. Pending (uncommitted) events
// are dropped; call Flush first to keep them.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		c.semi.Close()
		if c.wal != nil {
			c.wal.Close()
		}
	}
}

// UploadResult reports what one Ingest call did.
type UploadResult struct {
	// Accepted is the number of events newly accepted from the batch.
	Accepted int `json:"accepted"`
	// Duplicate is the number of already-seen events skipped (the
	// at-least-once retransmit case).
	Duplicate int `json:"duplicate"`
	// NextSeq is the user's next expected sequence number.
	NextSeq uint64 `json:"next_seq"`
	// Epoch and Rows describe the committed state after the call.
	Epoch int `json:"epoch"`
	Rows  int `json:"rows"`
}

// validate rejects a batch with an unknown user, an unknown publisher
// domain, or a malformed event, before any sequence state advances.
func (c *Collector) validate(b Batch) error {
	if _, ok := c.users[b.User]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, b.User)
	}
	for i, ev := range b.Events {
		if ev.Kind != KindVisit && ev.Kind != KindRequest {
			return fmt.Errorf("%w: event %d has kind 0x%02x", ErrBadEvent, i, ev.Kind)
		}
		if _, ok := c.pubs[ev.Publisher]; !ok {
			return fmt.Errorf("%w: event %d: %q", ErrUnknownPublisher, i, ev.Publisher)
		}
		if ev.Kind == KindRequest && ev.FQDN == "" {
			return fmt.Errorf("%w: event %d has empty FQDN", ErrBadEvent, i)
		}
	}
	return nil
}

// Ingest accepts one upload batch. Re-sent events (sequence numbers the
// user already uploaded) are skipped, so clients may retransmit freely;
// a batch starting beyond the user's next sequence number returns
// ErrSequenceGap and changes nothing. Crossing the epoch threshold
// commits the pending events synchronously and publishes the snapshot
// before returning.
func (c *Collector) Ingest(b Batch) (UploadResult, error) {
	c.mBatches.Add(1)
	if err := c.validate(b); err != nil {
		c.mRejected.Add(1)
		return UploadResult{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.closed:
		return UploadResult{}, ErrClosed
	case !c.ready.Load():
		return UploadResult{}, ErrNotReady
	case c.draining.Load():
		return UploadResult{}, ErrDraining
	}
	return c.ingestLocked(b, true)
}

// ingestLocked is the sequencing core of Ingest, called with c.mu held.
// WAL recovery replays journaled batches through it with journal=false:
// same dedup, same epoch commits, no re-journaling.
func (c *Collector) ingestLocked(b Batch, journal bool) (UploadResult, error) {
	next := c.nextSeq[b.User]
	if b.Seq > next {
		c.mSeqGaps.Add(1)
		return UploadResult{}, fmt.Errorf("%w: user %d sent seq %d, expected %d",
			ErrSequenceGap, b.User, b.Seq, next)
	}
	res := UploadResult{NextSeq: next}
	end := b.Seq + uint64(len(b.Events))
	if end > next {
		skip := int(next - b.Seq)
		fresh := b.Events[skip:]
		if journal && c.wal != nil {
			// Journal the accepted suffix before any state changes: a
			// crash after the append replays it, a crash before never
			// acknowledged it. Only the fresh suffix is journaled, so
			// replay needs no dedup beyond the normal sequence floors.
			if c.walErr != nil {
				return UploadResult{}, c.walErr
			}
			rec := EncodeBinary(Batch{User: b.User, Seq: next, Events: fresh})
			if _, err := c.wal.Append(rec); err != nil {
				c.walErr = fmt.Errorf("%w: %v", ErrJournal, err)
				return UploadResult{}, c.walErr
			}
			c.walSinceCkpt.Add(int64(len(rec)))
		}
		c.pending[b.User] = append(c.pending[b.User], fresh...)
		c.pendingN.Add(int64(len(fresh)))
		c.nextSeq[b.User] = end
		res.Accepted = len(fresh)
		res.Duplicate = skip
		res.NextSeq = end
	} else {
		res.Duplicate = len(b.Events)
	}
	c.mEvents.Add(int64(res.Accepted))
	c.mDupEvents.Add(int64(res.Duplicate))
	if c.pendingN.Load() >= int64(c.cfg.EpochEvents) {
		c.commitEpoch()
	}
	// Checkpoint cadence by WAL bytes: once the uncovered journal
	// exceeds the threshold, commit whatever is pending and cut a
	// checkpoint inline. Gated on readiness so WAL replay (which also
	// flows through here) never checkpoints — and GCs segments — out
	// from under the recovery loop iterating them. A failed
	// auto-checkpoint must not fail the upload that happened to trip
	// the threshold: the journal already holds the accepted batch, so
	// durability is intact; the error is surfaced via /v1/stats and
	// retried at the next threshold crossing.
	if journal && c.wal != nil && c.walErr == nil && c.cfg.CheckpointBytes > 0 &&
		c.walSinceCkpt.Load() >= c.cfg.CheckpointBytes && c.ready.Load() {
		if c.pendingN.Load() > 0 {
			c.commitEpoch()
		}
		if err := c.checkpointLocked(); err != nil {
			msg := err.Error()
			c.lastCkptErr.Store(&msg)
		}
	}
	snap := c.snap.Load()
	res.Epoch, res.Rows = snap.Epoch(), snap.Rows()
	return res, nil
}

// Flush commits any pending events as an epoch regardless of the
// threshold and returns the published snapshot.
func (c *Collector) Flush() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pendingN.Load() > 0 && !c.closed {
		c.commitEpoch()
	}
	return c.snap.Load()
}

// Snapshot returns the latest published epoch snapshot. It never
// blocks: the pointer swaps atomically at epoch commit.
func (c *Collector) Snapshot() *Snapshot { return c.snap.Load() }

// Epochs returns the commit history (a copy).
func (c *Collector) Epochs() []EpochStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EpochStat, len(c.epochs))
	copy(out, c.epochs)
	return out
}

// commitEpoch merges the pending events into the live dataset and
// publishes a new snapshot. Called with c.mu held.
//
// Determinism: the pending users are processed in ascending user id,
// each user's events in sequence order, and the per-shard classify
// results merge back in that same user order — so the dataset depends
// only on the event streams, never on upload interleaving inside the
// epoch or on Workers. A client that replays a batch simulation's
// events in stream order therefore reconstructs the batch dataset
// byte for byte, class labels included.
func (c *Collector) commitEpoch() {
	userIDs := make([]int32, 0, len(c.pending))
	for u := range c.pending {
		userIDs = append(userIDs, u)
	}
	sort.Slice(userIDs, func(i, j int) bool { return userIDs[i] < userIDs[j] })

	// Fan the users over the classification shards: worker w takes
	// users[w], users[w+W], ... Stage-1 classification, interning and
	// row building run in parallel with per-shard caches.
	w := c.cfg.Workers
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := c.sc.Shard(i)
			for j := i; j < len(userIDs); j += w {
				c.feedUser(sh, userIDs[j], c.pending[userIDs[j]])
			}
		}(i)
	}
	wg.Wait()

	// Merge in global user order: user j sits at capture j/W of shard
	// j%W because each shard saw its users in ascending order.
	prevRows := c.store.Len()
	for j := range userIDs {
		c.merger.AppendCapture(c.sc.Shard(j%w), j/w)
	}
	events := int(c.pendingN.Load())
	for u := range c.pending {
		delete(c.pending, u)
	}
	c.pendingN.Store(0)
	for i := 0; i < w; i++ {
		c.sc.Shard(i).ResetCaptures()
	}

	// Incremental classification stages 2+3, then the per-epoch
	// aggregate deltas: every row that became tracking this epoch —
	// appended or flipped — joins the three flow maps, and the new rows
	// extend the dataset-stats sets.
	flips := c.semi.Extend()
	ds := c.merger.Dataset()
	c.applyDeltas(prevRows, flips)

	c.epochs = append(c.epochs, EpochStat{
		Epoch:  len(c.epochs) + 1,
		Rows:   ds.Len(),
		Events: events,
		Flips:  len(flips),
		At:     time.Now().Unix(),
	})
	c.snap.Store(c.buildSnapshot(c.snap.Load(), prevRows, flips2chunks(flips, c.store.ChunkRows())))
}

// feedUser replays one user's accepted events into a classify shard,
// reconstructing the browser capture stream the extension observed.
func (c *Collector) feedUser(sh *classify.Shard, uid int32, events []Event) {
	u := c.users[uid]
	for _, ev := range events {
		pub := c.pubs[ev.Publisher]
		at := time.Unix(ev.At, 0).UTC()
		if ev.Kind == KindVisit {
			sh.OnVisit(u, pub, at)
			continue
		}
		sh.OnRequest(browser.Event{
			User:      u,
			Publisher: pub,
			Call: rtb.Call{
				FQDN:    ev.FQDN,
				Path:    ev.Path,
				HasArgs: ev.HasArgs,
				RefFQDN: ev.RefFQDN,
			},
			IP:    netsim.IP(ev.IP),
			At:    at,
			HTTPS: ev.HTTPS,
		})
	}
}

// applyDeltas folds the epoch into the running aggregates: the
// dataset-stats distinct sets over the appended rows' User and FQDN
// columns, and one flow-map delta per geolocation service from a single
// core.Join over exactly the rows that became tracking this epoch: the
// appended ones and the flips, which LiveSemi.Extend returns ascending
// and below prevRows, as Join requires. Merging deltas is exact —
// counter addition commutes — so the running analyses always equal a
// full core.Analyze rescan of the live dataset
// (TestIncrementalAggregatesMatchRescan).
func (c *Collector) applyDeltas(prevRows int, flips []int) {
	ds := c.merger.Dataset()
	st := c.store
	chunkRows := st.ChunkRows()
	pc := classify.GetProj()
	defer classify.PutProj(pc)
	for ci := prevRows / chunkRows; ci < st.NumChunks(); ci++ {
		classify.ProjChunkAt(st, ci, pc)
		lo := max(prevRows-ci*chunkRows, 0)
		for _, u := range pc.Wide(classify.ColUser)[lo:] {
			c.userSet[int32(u)] = struct{}{}
		}
		for _, f := range pc.Wide(classify.ColFQDN)[lo:] {
			c.fqdnSet[uint32(f)] = struct{}{}
		}
	}
	d := core.Join(ds, c.world.FlowServices(), prevRows, flips)
	c.truthA.Merge(d[0])
	c.ipmapA.Merge(d[1])
	c.maxmindA.Merge(d[2])
}

// flips2chunks maps flipped global row indices to their chunk indices.
func flips2chunks(flips []int, chunkRows int) map[int]struct{} {
	if len(flips) == 0 {
		return nil
	}
	out := make(map[int]struct{})
	for _, g := range flips {
		out[g/chunkRows] = struct{}{}
	}
	return out
}
