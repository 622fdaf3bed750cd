package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/browser"
	"crossborder/internal/chaos"
	"crossborder/internal/classify"
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
	// EpochEvents is the epoch threshold: the upload that brings the
	// accepted pending events to at least this many cuts them as one
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
// keeps the semi-stage fixpoint current incrementally, and publishes an
// immutable Snapshot per epoch, which derives the paper's aggregates
// from its rows.
//
// Two locks split the work (group commit: DeWitt et al., "Implementation
// Techniques for Main Memory Database Systems", SIGMOD 1984). The ingest
// lock mu covers sequencing only: an upload is validated in place over
// its wire bytes before the lock, then deduplicated, journaled and
// appended as wire frames to its user's pending run. The upload that
// crosses EpochEvents cuts the epoch and hands it to a committer
// goroutine, which decodes the frames inside its classify workers and
// commits under commitMu; uploads go on filling the next epoch
// meanwhile. At most one epoch is in flight: the next cut waits for it.
// Snapshot is wait-free (an atomic pointer load), so queries never
// block ingestion and always observe a complete epoch.
//
// Lock order: mu before commitMu. The committer takes only commitMu, so
// a holder of mu may wait for it.
type Collector struct {
	world *scenario.Scenario
	cfg   Config
	users map[int32]*browser.User
	pubs  map[string]*webgraph.Publisher

	mu      sync.Mutex
	nextSeq map[int32]uint64
	pending map[int32]*userRun
	// inflight is the cut epoch whose commit is running, nil once a
	// holder of mu has seen it publish.
	inflight *epochCut
	closed   bool
	// pendingN mirrors the pending event count and inflightN the events
	// of the epoch being committed; both are written under a lock but
	// read atomically by the lock-free query path.
	pendingN  atomic.Int64
	inflightN atomic.Int64

	// commitMu guards the committed state below. The committer holds it
	// for a whole commit; checkpoint and export encoding hold it instead
	// of mu.
	commitMu sync.Mutex
	sc       *classify.ShardedCollector
	merger   *classify.Merger
	store    *classify.MemStore
	semi     *classify.LiveSemi
	epochs   []EpochStat
	// internClone caches the last published interner clone; reused while
	// no new FQDN interns (see buildSnapshot).
	internClone    *classify.Interner
	internCloneLen int

	snap atomic.Pointer[Snapshot]

	// Durability state (nil / zero for a memory-only collector), under
	// mu. walErr poisons ingestion after a journal failure: the WAL tail
	// may be torn, so acknowledging further uploads would promise
	// durability the journal can no longer deliver.
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
	// the ingest lock). mCommitWaits counts uploads that blocked on the
	// previous epoch's commit.
	mBatches     atomic.Int64
	mEvents      atomic.Int64
	mDupEvents   atomic.Int64
	mSeqGaps     atomic.Int64
	mRejected    atomic.Int64
	mCommitWaits atomic.Int64
}

// userRun is one user's accepted events awaiting their epoch: in
// sequence order, the fresh frames of each upload, which alias the
// upload's own bytes.
type userRun struct {
	frames [][]byte
}

// epochCut is one cut epoch: its users ascending, their runs, and a
// channel closed once the committer has published it.
type epochCut struct {
	users  []int32
	runs   []*userRun
	events int
	done   chan struct{}
}

// NewCollector wires a collector over a world built by
// scenario.BuildWorld with the same Seed/Scale the uploading clients
// simulate. The world is read-only to the collector; several collectors
// may share one.
func NewCollector(world *scenario.Scenario, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		world:   world,
		cfg:     cfg,
		users:   make(map[int32]*browser.User, len(world.Users)),
		pubs:    make(map[string]*webgraph.Publisher, len(world.Graph.Publishers)),
		nextSeq: make(map[int32]uint64),
		pending: make(map[int32]*userRun),
		started: time.Now(),
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

// Close waits for the epoch in flight to publish, then releases the
// fixpoint worker pool. Pending (uncut) events are dropped; call Flush
// first to keep them.
func (c *Collector) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.awaitLocked()
	c.commitMu.Lock()
	c.semi.Close()
	c.commitMu.Unlock()
	if c.wal != nil {
		c.wal.Close()
	}
}

// UploadResult reports what one Ingest or IngestBinary call did.
type UploadResult struct {
	// Accepted is the number of events newly accepted from the batch.
	Accepted int `json:"accepted"`
	// Duplicate is the number of already-seen events skipped (the
	// at-least-once retransmit case).
	Duplicate int `json:"duplicate"`
	// NextSeq is the user's next expected sequence number.
	NextSeq uint64 `json:"next_seq"`
	// Epoch and Rows describe the latest published snapshot when the
	// call returned. An epoch this upload cut may still be committing,
	// so they can lag the upload by one epoch.
	Epoch int `json:"epoch"`
	Rows  int `json:"rows"`
}

// Ingest accepts one upload batch: it encodes b in the binary wire
// format and takes the IngestBinary path, so both accept the same
// batches (at most MaxBatchEvents events) with the same results. Like
// IngestBinary it returns once the batch is journaled and queued: an
// epoch it cuts commits in the background, and the returned Epoch and
// Rows may lag it by that epoch (Flush waits for it).
func (c *Collector) Ingest(b Batch) (UploadResult, error) {
	return c.IngestBinary(EncodeBinary(b))
}

// IngestBinary accepts one upload in the binary wire format. The
// batch is validated in place — unknown user or publisher, malformed
// event or framing — before any sequence state advances. Re-sent
// events (sequence numbers the user already uploaded) are skipped, so
// clients may retransmit freely; a batch starting beyond the user's
// next sequence number returns ErrSequenceGap and changes nothing. The
// accepted frames are journaled and queued in place: the collector
// keeps raw until their epoch commits, so the caller must not modify
// it after the call.
//
// The upload that brings the pending events to EpochEvents cuts them as
// one epoch and returns without waiting for its commit; Snapshot shows
// the epoch once it publishes. If the previous epoch is still
// committing, that upload waits for it first. Cut points depend only on
// the sequence of accepted uploads, never on commit timing.
func (c *Collector) IngestBinary(raw []byte) (UploadResult, error) {
	c.mBatches.Add(1)
	h, err := c.scanBinary(raw)
	if err != nil {
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
	return c.acceptLocked(raw, h, false)
}

// acceptLocked is the sequencing core of IngestBinary, called with c.mu
// held on a batch scanBinary passed. WAL recovery replays journaled
// batches through it with replay set: same dedup and epoch cuts, no
// re-journaling, commits run synchronously and no auto-checkpoint.
func (c *Collector) acceptLocked(raw []byte, h batchHeader, replay bool) (UploadResult, error) {
	next := c.nextSeq[h.user]
	if h.seq > next {
		c.mSeqGaps.Add(1)
		return UploadResult{}, fmt.Errorf("%w: user %d sent seq %d, expected %d",
			ErrSequenceGap, h.user, h.seq, next)
	}
	res := UploadResult{NextSeq: next, Duplicate: int(h.count)}
	if end := h.seq + h.count; end > next {
		skip := next - h.seq
		fresh := skipFrames(h.frames, skip)
		if !replay && c.wal != nil {
			// Journal the accepted frames before any state changes: a
			// crash after the append replays them, a crash before never
			// acknowledged them. Only fresh frames are journaled (the
			// upload as it arrived, or its suffix under a new header),
			// so replay needs no dedup beyond the per-user sequence numbers.
			if c.walErr != nil {
				return UploadResult{}, c.walErr
			}
			rec := journalRecord(raw, h, next, fresh)
			if _, err := c.wal.Append(rec); err != nil {
				c.walErr = fmt.Errorf("%w: %v", ErrJournal, err)
				return UploadResult{}, c.walErr
			}
			c.walSinceCkpt.Add(int64(len(rec)))
		}
		run := c.pending[h.user]
		if run == nil {
			run = &userRun{}
			c.pending[h.user] = run
		}
		run.frames = append(run.frames, fresh)
		c.pendingN.Add(int64(end - next))
		c.nextSeq[h.user] = end
		res.Accepted, res.Duplicate, res.NextSeq = int(end-next), int(skip), end
	}
	c.mEvents.Add(int64(res.Accepted))
	c.mDupEvents.Add(int64(res.Duplicate))
	waited := false
	if c.pendingN.Load() >= int64(c.cfg.EpochEvents) {
		waited = c.cutLocked(replay)
	}
	// Checkpoint cadence by WAL bytes: once the uncovered journal
	// exceeds the threshold, cut whatever is pending, wait until every
	// cut epoch has published and cut a checkpoint inline. Gated on
	// readiness so WAL replay never checkpoints — and GCs segments —
	// out from under the recovery loop iterating them. A failed
	// auto-checkpoint must not fail the upload that happened to trip
	// the threshold: the journal already holds the accepted batch, so
	// durability is intact; the error is surfaced via /v1/stats and
	// retried at the next threshold crossing.
	if !replay && c.wal != nil && c.walErr == nil && c.cfg.CheckpointBytes > 0 &&
		c.walSinceCkpt.Load() >= c.cfg.CheckpointBytes && c.ready.Load() {
		waited = c.flushLocked() || waited
		if err := c.checkpointLocked(); err != nil {
			msg := err.Error()
			c.lastCkptErr.Store(&msg)
		}
	}
	if waited {
		c.mCommitWaits.Add(1)
	}
	snap := c.snap.Load()
	res.Epoch, res.Rows = snap.Epoch(), snap.Rows()
	return res, nil
}

// Flush cuts any pending events as an epoch regardless of the
// threshold, waits until every cut epoch has published, and returns the
// resulting snapshot.
func (c *Collector) Flush() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.flushLocked()
	}
	return c.snap.Load()
}

// Snapshot returns the latest published epoch snapshot. It never
// blocks: the pointer swaps atomically when an epoch commit publishes,
// so it may lag the last upload by the epoch in flight. Flush first for
// a snapshot that covers every accepted event.
func (c *Collector) Snapshot() *Snapshot { return c.snap.Load() }

// Epochs returns the commit history (a copy), after waiting for the
// epoch in flight.
func (c *Collector) Epochs() []EpochStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.awaitLocked()
	// No commit runs now: starting one takes c.mu.
	return slices.Clone(c.epochs)
}

// awaitLocked waits for the epoch in flight, if any, to publish. Called
// with c.mu held; it reports whether it had to block.
func (c *Collector) awaitLocked() bool {
	e := c.inflight
	if e == nil {
		return false
	}
	c.inflight = nil
	select {
	case <-e.done:
		return false
	default:
	}
	<-e.done
	return true
}

// cutLocked ends the pending epoch. It first waits for the epoch in
// flight, so epochs publish in cut order, then hands the new one to a
// committer goroutine or, with sync, commits it before returning.
// Called with c.mu held and events pending; it reports whether it had
// to wait.
func (c *Collector) cutLocked(sync bool) bool {
	waited := c.awaitLocked()
	e := &epochCut{users: make([]int32, 0, len(c.pending)), events: int(c.pendingN.Load())}
	for u := range c.pending {
		e.users = append(e.users, u)
	}
	slices.Sort(e.users)
	e.runs = make([]*userRun, len(e.users))
	for i, u := range e.users {
		e.runs[i] = c.pending[u]
	}
	c.pending = make(map[int32]*userRun, len(e.users))
	c.inflightN.Store(int64(e.events))
	c.pendingN.Store(0)
	if sync {
		c.commit(e)
		return waited
	}
	e.done = make(chan struct{})
	c.inflight = e
	go func() {
		c.commit(e)
		close(e.done)
	}()
	return waited
}

// flushLocked cuts whatever is pending and waits until every cut epoch
// has published. Called with c.mu held; it reports whether it had to
// wait for an epoch in flight.
func (c *Collector) flushLocked() bool {
	if c.pendingN.Load() > 0 {
		return c.cutLocked(true)
	}
	return c.awaitLocked()
}

// commit merges a cut epoch into the live dataset and publishes a new
// snapshot, holding commitMu throughout.
//
// Determinism: the users are processed in ascending user id, each
// user's events in sequence order, and the per-shard classify results
// merge back in that same user order — so the dataset depends only on
// the event streams and the cut points, never on upload interleaving
// inside the epoch, on commit timing or on Workers. A client that
// replays a batch simulation's events in stream order therefore
// reconstructs the batch dataset byte for byte, class labels included.
func (c *Collector) commit(e *epochCut) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()

	// Fan the users over the classification shards: worker w takes
	// users[w], users[w+W], ... Frame decoding, stage-1 classification,
	// interning and row building run in parallel with per-shard caches.
	w := c.cfg.Workers
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh := c.sc.Shard(i)
			for j := i; j < len(e.users); j += w {
				c.feedRun(sh, e.users[j], e.runs[j])
			}
		}(i)
	}
	wg.Wait()

	// Merge in global user order: user j sits at capture j/W of shard
	// j%W because each shard saw its users in ascending order.
	prevRows := c.store.Len()
	for j := range e.users {
		c.merger.AppendCapture(c.sc.Shard(j%w), j/w)
	}
	for i := 0; i < w; i++ {
		c.sc.Shard(i).ResetCaptures()
	}

	// Incremental classification stages 2+3.
	flips := c.semi.Extend()

	c.epochs = append(c.epochs, EpochStat{
		Epoch:  len(c.epochs) + 1,
		Rows:   c.store.Len(),
		Events: e.events,
		Flips:  len(flips),
		At:     time.Now().Unix(),
	})
	c.snap.Store(c.buildSnapshot(c.snap.Load(), prevRows, flips2chunks(flips, c.store.ChunkRows())))
	c.inflightN.Store(0)
}

// feedRun decodes one user's pending frames (validated at intake) and
// replays them into a classify shard, reconstructing the browser
// capture stream the extension observed.
func (c *Collector) feedRun(sh *classify.Shard, uid int32, run *userRun) {
	u := c.users[uid]
	var v frameView
	for _, frames := range run.frames {
		for len(frames) > 0 {
			frames = nextFrame(frames, &v)
			pub := c.pubs[string(v.pub)]
			at := time.Unix(v.at, 0).UTC()
			if v.kind == KindVisit {
				sh.OnVisit(u, pub, at)
				continue
			}
			sh.OnRequest(browser.Event{
				User:      u,
				Publisher: pub,
				Call: rtb.Call{
					FQDN:    string(v.fqdn),
					Path:    string(v.path),
					HasArgs: v.flags&flagHasArgs != 0,
					RefFQDN: string(v.ref),
				},
				IP:    netsim.IP(v.ip),
				At:    at,
				HTTPS: v.flags&flagHTTPS != 0,
			})
		}
	}
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
