package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crossborder/internal/chaos"
	"crossborder/internal/classify"
	"crossborder/internal/geodata"
	"crossborder/internal/ingest/wal"
)

// This file is the durability layer of the collector: the write-ahead
// journal of accepted batches, epoch checkpoints of the committed
// state, and crash recovery (load newest checkpoint, replay the WAL
// tail). The invariants:
//
//   - Every accepted batch is journaled before it mutates collector
//     state, so an acknowledged upload survives kill -9 (under
//     -wal-sync=always; weaker policies trade the sync for throughput
//     and rely on client retries for the unsynced tail).
//   - A checkpoint captures exactly the committed state (pending
//     events are committed first) plus the id of a freshly rotated WAL
//     segment; everything before that segment is covered by the
//     checkpoint and garbage-collected after the checkpoint is
//     durable. Checkpoints are written temp + rename, so a crash
//     mid-write leaves the previous checkpoint intact.
//   - Full chunks are written once. Each checkpoint writes the chunks
//     sealed since the previous one as one block segment
//     (blocks-%08d.blk, named by its first chunk index) and names every
//     segment in its manifest; the checkpoint itself carries only their
//     class bytes plus the inline mutable tail chunk. A segment is
//     immutable: it is durable (temp + fsync + rename) before any
//     checkpoint names it, never rewritten once its publish returns
//     (even if the checkpoint naming it then reports a failed publish,
//     it may have landed), and never garbage-collected while named —
//     later checkpoints name a superset. A crash between the segment and
//     the checkpoint publish leaves an orphan segment, which Recover
//     removes.
//   - Recovery replays every WAL segment still on disk through the
//     normal ingest path (the same in-place scanner and epoch cuts)
//     with journaling disabled, committing each epoch synchronously;
//     auto-checkpoints stay inline, after the epoch in flight. Replay is
//     idempotent because the checkpointed per-user sequence numbers
//     make every already-covered record a duplicate, so recovery is
//     correct at every crash point — including crashes during
//     checkpoint GC and crashes during recovery itself.
//
// The golden property (TestCrashRecoveryGoldenParity in
// internal/ingest/crashtest) is that a collector killed at any point
// and recovered serves artifacts byte-identical to one that never
// crashed.

// Durability errors. The HTTP layer maps ErrNotReady and ErrDraining
// to 503 with Retry-After, ErrJournal to 500.
var (
	// ErrNotReady: the collector is durable and Recover has not
	// completed; uploads must wait for readiness.
	ErrNotReady = errors.New("ingest: recovering, not ready for uploads")
	// ErrDraining: the collector is shutting down gracefully and no
	// longer accepts uploads.
	ErrDraining = errors.New("ingest: draining for shutdown")
	// ErrJournal: a WAL append failed. The collector fails stop — the
	// journal tail may be torn, so accepting further uploads could
	// acknowledge data a restart would refuse to replay.
	ErrJournal = errors.New("ingest: write-ahead journal failed")
)

// ckptMagic opens every checkpoint file, followed by a CRC32C
// (Castagnoli) over the body.
var ckptMagic = [5]byte{'X', 'C', 'K', 'P', '1'}

var ckptCastagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	ckptPattern = "checkpoint-%08d.ckpt"
	segPattern  = "blocks-%08d.blk"
)

func ckptName(epoch int) string { return fmt.Sprintf(ckptPattern, epoch) }

func segName(first int) string { return fmt.Sprintf(segPattern, first) }

// ckptSeg names one immutable block segment: the codec blocks of chunks
// [First, First+Count), stored as [uvarint len][block] entries, with a
// CRC32C over the whole file.
type ckptSeg struct {
	First  int    `json:"first"`
	Count  int    `json:"count"`
	CRC32C uint32 `json:"crc32c"`
}

// segsEnd returns the first chunk index no segment in segs covers.
func segsEnd(segs []ckptSeg) int {
	if len(segs) == 0 {
		return 0
	}
	last := segs[len(segs)-1]
	return last.First + last.Count
}

// seqFloor persists one user's next expected sequence number.
type seqFloor struct {
	User int32  `json:"user"`
	Next uint64 `json:"next"`
}

// ckptMeta is the JSON head of a checkpoint or export: everything
// except the chunk blocks. It stores only what a reader cannot rebuild
// from the rows. Identity fields (seed/scale/layout) let recovery
// refuse a checkpoint written by a differently configured collector
// instead of silently diverging. Restore derives the rest: the semi-
// stage LTF and candidate frontier from a first LiveSemi.Extend over
// the restored rows. Table 1 and the three flow maps are derived per
// snapshot from the rows, so no distinct-user or FQDN set and no flow
// count is stored or rebuilt. Checkpoints and exports written with
// those fields (ltf, cand, settled_rows, users, fqdn_seen, truth,
// ipmap, maxmind) still load; JSON ignores them.
type ckptMeta struct {
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	StartUnix int64   `json:"start_unix"`
	ChunkRows int     `json:"chunk_rows"`
	Compress  bool    `json:"compress"`

	Rows      int         `json:"rows"`
	Visits    int         `json:"visits"`
	ChunkLens []int       `json:"chunk_lens"`
	Epochs    []EpochStat `json:"epochs"`

	// Seqs holds each user's next sequence number, pending events
	// excluded (a checkpoint is cut with none pending). Exports carry
	// none: the fan-in never reads them.
	Seqs       []seqFloor `json:"seqs"`
	Countries  []string   `json:"countries"`
	Publishers []string   `json:"publishers"`
	FQDNs      []string   `json:"fqdns"`

	// Segs lists the block segments holding chunks [0, segsEnd(Segs)),
	// contiguous from chunk 0; the body carries only those chunks'
	// class bytes. Empty in exports and in checkpoints that predate
	// segments, whose every chunk is inline.
	Segs []ckptSeg `json:"segs,omitempty"`

	// WALSeg is the first WAL segment NOT covered by this checkpoint:
	// the segment rotated in immediately before the checkpoint was
	// built. Segments below it are garbage once the checkpoint is
	// durable. Recovery replays every segment still present — replay
	// is idempotent — so WALSeg only drives GC, never correctness.
	WALSeg int `json:"wal_seg"`
}

// walDir returns the journal directory under the data dir.
func walDir(dataDir string) string { return filepath.Join(dataDir, "wal") }

// walOptions maps the collector config to WAL options.
func (c Config) walOptions() (wal.Options, error) {
	pol := wal.SyncInterval
	if c.WALSync != "" {
		var err error
		if pol, err = wal.ParsePolicy(c.WALSync); err != nil {
			return wal.Options{}, err
		}
	}
	return wal.Options{
		Policy:       pol,
		Interval:     c.WALSyncInterval,
		SegmentBytes: c.WALSegmentBytes,
		FS:           c.FS,
	}, nil
}

// JournalError returns the error that poisoned the journal, or nil
// while the collector is healthy. A poisoned collector fails every
// Ingest with ErrJournal until it is rebuilt and recovered; the chaos
// harness's supervisor polls this to know when to restart a shard.
func (c *Collector) JournalError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.walErr
}

// Durable reports whether the collector journals and checkpoints
// (Config.DataDir was set and Recover opened the WAL).
func (c *Collector) Durable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wal != nil
}

// Ready reports whether the collector accepts uploads: memory-only
// collectors are born ready; durable ones become ready when Recover
// completes.
func (c *Collector) Ready() bool { return c.ready.Load() }

// BeginDrain stops upload acceptance for a graceful shutdown: every
// subsequent Ingest fails with ErrDraining (503 + Retry-After over
// HTTP) while queries keep serving. In-flight uploads finish normally;
// the caller then commits the final epoch with FlushCheckpoint.
func (c *Collector) BeginDrain() { c.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (c *Collector) Draining() bool { return c.draining.Load() }

// RecoveryProgress is the /readyz view of a recovery in flight:
// operators watch segments replayed converge on the total.
type RecoveryProgress struct {
	Ready            bool  `json:"ready"`
	CheckpointEpoch  int   `json:"checkpoint_epoch"`
	SegmentsTotal    int   `json:"segments_total"`
	SegmentsReplayed int   `json:"segments_replayed"`
	RecordsReplayed  int64 `json:"records_replayed"`
}

// Recovery returns the current recovery progress. Lock-free: the
// readiness endpoint polls it while Recover holds the ingest lock.
func (c *Collector) Recovery() RecoveryProgress {
	return RecoveryProgress{
		Ready:            c.ready.Load(),
		CheckpointEpoch:  int(c.recCkptEpoch.Load()),
		SegmentsTotal:    int(c.recSegTotal.Load()),
		SegmentsReplayed: int(c.recSegDone.Load()),
		RecordsReplayed:  c.recRecords.Load(),
	}
}

// RecoveryStats summarizes a completed Recover.
type RecoveryStats struct {
	CheckpointEpoch int           // 0 = started from an empty checkpoint
	Segments        int           // WAL segments replayed
	Records         int64         // WAL records replayed (including duplicates)
	Rows            int           // dataset rows after recovery
	Duration        time.Duration // wall time of the whole recovery
}

// Recover brings a durable collector to readiness: it loads the newest
// valid checkpoint under DataDir, opens the WAL (truncating a torn
// tail), replays every surviving record through the normal dedup path,
// and only then marks the collector ready. Memory-only collectors
// return immediately. Recover must be called exactly once, before any
// Ingest; the HTTP server may already be serving (uploads fail with
// ErrNotReady until recovery completes, /readyz reports progress).
func (c *Collector) Recover() (RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	if c.cfg.DataDir == "" {
		return stats, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ready.Load() {
		return stats, errors.New("ingest: Recover called twice")
	}
	if err := c.cfg.fs().MkdirAll(c.cfg.DataDir, 0o755); err != nil {
		return stats, err
	}

	// The newest checkpoint must load. No falling back to an older one
	// or to WAL-only: writing a checkpoint garbage-collects the WAL
	// prefix it covers, so once any checkpoint exists, recovering
	// without the newest could silently drop that prefix. A crash never
	// tears a checkpoint (temp + rename), so an unreadable one means
	// disk corruption — fail loudly, like mid-WAL corruption.
	epochs, err := listCheckpoints(c.cfg.fs(), c.cfg.DataDir)
	if err != nil {
		return stats, err
	}
	if len(epochs) > 0 {
		name := ckptName(epochs[len(epochs)-1])
		meta, blocks, classes, err := readCheckpoint(c.cfg.fs(), c.cfg.DataDir, name)
		if err != nil {
			return stats, fmt.Errorf("ingest: %s: %w", name, err)
		}
		if err := c.restoreCheckpoint(meta, blocks, classes); err != nil {
			return stats, fmt.Errorf("ingest: checkpoint %s: %w", name, err)
		}
		stats.CheckpointEpoch = len(meta.Epochs)
		c.recCkptEpoch.Store(int64(stats.CheckpointEpoch))
	}
	if err := c.removeOrphanSegments(); err != nil {
		return stats, err
	}

	opts, err := c.cfg.walOptions()
	if err != nil {
		return stats, err
	}
	w, err := wal.Open(walDir(c.cfg.DataDir), opts)
	if err != nil {
		return stats, err
	}
	c.wal = w

	segs := w.Segments()
	c.recSegTotal.Store(int64(len(segs)))
	for _, id := range segs {
		err := w.ReplaySegment(id, func(_ int, payload []byte) error {
			// The record aliases the whole segment file; pending
			// frames must not keep that alive.
			payload = bytes.Clone(payload)
			h, err := c.scanBinary(payload)
			if err != nil {
				return fmt.Errorf("ingest: WAL record invalid: %w", err)
			}
			if _, err := c.acceptLocked(payload, h, true); err != nil {
				return fmt.Errorf("ingest: WAL replay: %w", err)
			}
			// Surviving journal bytes are uncovered by the checkpoint;
			// they count toward the auto-checkpoint threshold so a
			// restart does not reset the cadence.
			c.walSinceCkpt.Add(int64(len(payload)))
			c.recRecords.Add(1)
			return nil
		})
		if err != nil {
			return stats, err
		}
		c.recSegDone.Add(1)
	}
	stats.Segments = len(segs)
	stats.Records = c.recRecords.Load()
	stats.Rows = c.snap.Load().Rows()
	stats.Duration = time.Since(start)
	c.ready.Store(true)
	return stats, nil
}

// FlushCheckpoint cuts any pending events as an epoch, waits until
// every cut epoch has published and, for a durable collector, writes a
// checkpoint and garbage-collects the covered WAL prefix and older
// checkpoints. It is the Flush of /v1/flush and graceful shutdown. The
// returned snapshot is the state the checkpoint captured.
func (c *Collector) FlushCheckpoint() (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.snap.Load(), nil
	}
	c.flushLocked()
	if c.wal == nil {
		return c.snap.Load(), nil
	}
	err := c.checkpointLocked()
	return c.snap.Load(), err
}

// checkpointLocked writes a checkpoint of the committed state. Called
// with c.mu held, nothing pending and no epoch in flight; it holds
// commitMu while it encodes.
func (c *Collector) checkpointLocked() error {
	if n := c.PendingEvents(); n != 0 {
		return fmt.Errorf("ingest: checkpoint with %d uncommitted events", n)
	}
	// Rotate first: every journaled record is committed state, so the
	// fresh segment is the exact WAL suffix the checkpoint excludes.
	seg, err := c.wal.Rotate()
	if err != nil {
		return err
	}
	c.commitMu.Lock()
	segBytes, err := c.writeSegment()
	var body []byte
	if err == nil {
		// c.mu is held with nothing pending and no epoch in flight, so
		// every accepted sequence number is committed.
		body, err = c.encodeCheckpoint(seg, c.segs, c.nextSeq)
	}
	epoch := len(c.epochs)
	c.commitMu.Unlock()
	if err != nil {
		return err
	}
	if err := writeFileAtomic(c.cfg.fs(), c.cfg.DataDir, ckptName(epoch), body); err != nil {
		return err
	}
	// The checkpoint is durable: reclaim everything it covers. GC
	// failures are non-fatal (stale files replay as duplicates or are
	// skipped as older checkpoints) but surface as errors so operators
	// notice a disk that stops honoring removes.
	epochs, err := listCheckpoints(c.cfg.fs(), c.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		if e != epoch {
			if err := c.cfg.fs().Remove(filepath.Join(c.cfg.DataDir, ckptName(e))); err != nil {
				return err
			}
		}
	}
	// The checkpoint now covers every journaled byte: reset the
	// auto-checkpoint accumulator and record the bytes it wrote for
	// /v1/stats.
	c.walSinceCkpt.Store(0)
	c.lastCkptBytes.Store(int64(segBytes + len(body)))
	c.lastCkptErr.Store(nil)
	return c.wal.RemoveBefore(seg)
}

// writeSegment writes the full chunks no segment covers yet as one
// block segment, appends it to c.segs once its publish returns, and
// returns the bytes written. With no newly sealed chunk it writes
// nothing. The segment joins c.segs whether or not the checkpoint
// naming it then publishes: that checkpoint may have landed even though
// its publish failed (a failed directory sync after the rename), so a
// retry must never rewrite the segment. A segment whose own publish
// failed is in no list, and the retry overwrites it.
func (c *Collector) writeSegment() (int, error) {
	first, full := segsEnd(c.segs), c.store.Len()/c.store.ChunkRows()
	if full == first {
		return 0, nil
	}
	var body []byte
	for ci := first; ci < full; ci++ {
		var err error
		if body, err = appendBlock(body, c.store, ci); err != nil {
			return 0, err
		}
	}
	if err := writeFileAtomic(c.cfg.fs(), c.cfg.DataDir, segName(first), body); err != nil {
		return 0, err
	}
	c.segs = append(c.segs, ckptSeg{First: first, Count: full - first, CRC32C: crc32.Checksum(body, ckptCastagnoli)})
	return len(body), nil
}

// encodeCheckpoint serializes the committed state: meta JSON, then per
// chunk its framed codec block (omitted for chunks segs covers) and raw
// class column. seqs holds each user's committed next sequence
// number. Exports pass neither segments nor seqs and get a
// self-contained payload. Called with commitMu held.
func (c *Collector) encodeCheckpoint(walSeg int, segs []ckptSeg, seqs map[int32]uint64) ([]byte, error) {
	ds := c.merger.Dataset()
	st := c.store
	meta := ckptMeta{
		Seed:      c.world.Params.Seed,
		Scale:     c.world.Params.Scale,
		StartUnix: c.world.Start.Unix(),
		ChunkRows: st.ChunkRows(),
		Compress:  st.Compressed(),
		Rows:      st.Len(),
		Visits:    ds.Visits,
		Epochs:    c.epochs,
		Segs:      segs,
		WALSeg:    walSeg,
	}
	for u, next := range seqs {
		meta.Seqs = append(meta.Seqs, seqFloor{User: u, Next: next})
	}
	sort.Slice(meta.Seqs, func(i, j int) bool { return meta.Seqs[i].User < meta.Seqs[j].User })
	for _, cc := range ds.Countries {
		meta.Countries = append(meta.Countries, string(cc))
	}
	for _, p := range ds.Publishers {
		meta.Publishers = append(meta.Publishers, p.Domain)
	}
	meta.FQDNs = ds.FQDNs.Strings()
	for ci := 0; ci < st.NumChunks(); ci++ {
		meta.ChunkLens = append(meta.ChunkLens, len(st.Classes(ci)))
	}

	head, err := json.Marshal(&meta)
	if err != nil {
		return nil, err
	}
	body := binary.AppendUvarint(nil, uint64(len(head)))
	body = append(body, head...)
	for ci := 0; ci < st.NumChunks(); ci++ {
		if ci >= segsEnd(segs) {
			if body, err = appendBlock(body, st, ci); err != nil {
				return nil, err
			}
		}
		for _, cls := range st.Classes(ci) {
			body = append(body, byte(cls))
		}
	}
	out := append([]byte(nil), ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, ckptCastagnoli))
	return append(out, body...), nil
}

// appendBlock appends chunk ci of st as a [uvarint len][codec block]
// entry, the framing of inline chunks and segment entries alike.
func appendBlock(dst []byte, st *classify.MemStore, ci int) ([]byte, error) {
	block, err := classify.EncodeChunk(st, ci)
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(block)))
	return append(dst, block...), nil
}

// cutBlock splits one [uvarint len][codec block] entry off data.
func cutBlock(data []byte) (block, rest []byte, ok bool) {
	blen, n := binary.Uvarint(data)
	if n <= 0 || blen > uint64(len(data)-n) {
		return nil, nil, false
	}
	return data[n : n+int(blen)], data[n+int(blen):], true
}

// errCkptCorrupt marks a checkpoint whose bytes fail validation (vs. an
// identity or layout mismatch). Recover never falls back to an older
// checkpoint on either: it fails loudly.
var errCkptCorrupt = errors.New("ingest: corrupt checkpoint")

// readCheckpoint parses and validates the checkpoint file name under
// dir, loading the block segments its manifest names from dir.
func readCheckpoint(fs chaos.FS, dir, name string) (*ckptMeta, [][]byte, [][]classify.Class, error) {
	data, err := fs.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return nil, nil, nil, err
	}
	return decodeCheckpoint(data, func(s ckptSeg) ([]byte, error) {
		return fs.ReadFile(filepath.Join(dir, segName(s.First)))
	})
}

// decodeCheckpoint parses one XCKP1 payload (a checkpoint file or a
// /v1/snapshot export body). loadSeg reads the bytes of a block segment
// the manifest names; nil means the payload must be self-contained, and
// a manifest naming segments is refused.
func decodeCheckpoint(data []byte, loadSeg func(ckptSeg) ([]byte, error)) (*ckptMeta, [][]byte, [][]classify.Class, error) {
	if len(data) < len(ckptMagic)+4 || string(data[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, nil, nil, fmt.Errorf("%w: bad header", errCkptCorrupt)
	}
	sum := binary.LittleEndian.Uint32(data[len(ckptMagic):])
	body := data[len(ckptMagic)+4:]
	if crc32.Checksum(body, ckptCastagnoli) != sum {
		return nil, nil, nil, fmt.Errorf("%w: checksum mismatch", errCkptCorrupt)
	}
	headLen, n := binary.Uvarint(body)
	if n <= 0 || headLen > uint64(len(body)-n) {
		return nil, nil, nil, fmt.Errorf("%w: bad meta length", errCkptCorrupt)
	}
	var meta ckptMeta
	if err := json.Unmarshal(body[n:n+int(headLen)], &meta); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: meta: %v", errCkptCorrupt, err)
	}
	if len(meta.Segs) > 0 && loadSeg == nil {
		return nil, nil, nil, fmt.Errorf("%w: payload names %d block segments, want a self-contained one", errCkptCorrupt, len(meta.Segs))
	}
	// Validate the whole manifest before reading any segment.
	covered := 0
	for i, s := range meta.Segs {
		if s.First != covered || s.Count <= 0 || s.Count > len(meta.ChunkLens)-covered {
			return nil, nil, nil, fmt.Errorf("%w: segment %d covers chunks [%d,+%d), want contiguous from %d within %d chunks",
				errCkptCorrupt, i, s.First, s.Count, covered, len(meta.ChunkLens))
		}
		covered += s.Count
	}
	for ci, rows := range meta.ChunkLens {
		if rows <= 0 || rows > meta.ChunkRows {
			return nil, nil, nil, fmt.Errorf("%w: chunk %d declares %d rows", errCkptCorrupt, ci, rows)
		}
		if ci < covered && rows != meta.ChunkRows {
			return nil, nil, nil, fmt.Errorf("%w: segment chunk %d holds %d rows, want a full %d", errCkptCorrupt, ci, rows, meta.ChunkRows)
		}
	}
	blocks := make([][]byte, len(meta.ChunkLens))
	for _, s := range meta.Segs {
		seg, err := loadSeg(s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("segment %s: %w", segName(s.First), err)
		}
		sb, err := parseSegment(seg, s)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("segment %s: %w", segName(s.First), err)
		}
		copy(blocks[s.First:], sb)
	}

	rest := body[n+int(headLen):]
	total := 0
	classes := make([][]classify.Class, 0, len(meta.ChunkLens))
	for ci, rows := range meta.ChunkLens {
		if ci >= covered {
			var ok bool
			if blocks[ci], rest, ok = cutBlock(rest); !ok {
				return nil, nil, nil, fmt.Errorf("%w: chunk %d block length", errCkptCorrupt, ci)
			}
		}
		if len(rest) < rows {
			return nil, nil, nil, fmt.Errorf("%w: chunk %d classes truncated", errCkptCorrupt, ci)
		}
		cls := make([]classify.Class, rows)
		for i := 0; i < rows; i++ {
			cls[i] = classify.Class(rest[i])
		}
		classes = append(classes, cls)
		rest = rest[rows:]
		total += rows
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("%w: %d trailing bytes", errCkptCorrupt, len(rest))
	}
	if total != meta.Rows {
		return nil, nil, nil, fmt.Errorf("%w: chunk lengths sum to %d, meta says %d rows", errCkptCorrupt, total, meta.Rows)
	}
	return &meta, blocks, classes, nil
}

// parseSegment splits one block segment's bytes into its s.Count
// blocks, which alias data. The bytes must match the manifest's CRC32C
// and hold exactly s.Count [uvarint len][block] entries; the blocks
// themselves are validated by RestoreChunk.
func parseSegment(data []byte, s ckptSeg) ([][]byte, error) {
	if crc32.Checksum(data, ckptCastagnoli) != s.CRC32C {
		return nil, fmt.Errorf("%w: segment checksum mismatch", errCkptCorrupt)
	}
	blocks := make([][]byte, 0, s.Count)
	for len(data) > 0 && len(blocks) < s.Count {
		block, rest, ok := cutBlock(data)
		if !ok {
			return nil, fmt.Errorf("%w: segment block %d length", errCkptCorrupt, len(blocks))
		}
		blocks, data = append(blocks, block), rest
	}
	if len(blocks) != s.Count || len(data) != 0 {
		return nil, fmt.Errorf("%w: segment holds %d blocks and %d trailing bytes, manifest says %d blocks",
			errCkptCorrupt, len(blocks), len(data), s.Count)
	}
	return blocks, nil
}

// restoreCheckpoint rebuilds the collector's committed state from a
// parsed checkpoint. Called with c.mu held, on a freshly constructed
// collector (NewCollector state), before WAL replay. The collector is
// left untouched unless the whole checkpoint restores. What the meta
// does not store is derived through the commit path's own code: a
// first LiveSemi.Extend over the restored rows rebuilds the LTF and
// candidate frontier (the rows are at the fixpoint, so it relabels
// none). Table 1 needs no rebuild: every snapshot derives it from its
// rows on first query.
func (c *Collector) restoreCheckpoint(meta *ckptMeta, blocks [][]byte, classes [][]classify.Class) error {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	if meta.Seed != c.world.Params.Seed || meta.Scale != c.world.Params.Scale {
		return fmt.Errorf("checkpoint is for seed %d scale %g, collector runs seed %d scale %g",
			meta.Seed, meta.Scale, c.world.Params.Seed, c.world.Params.Scale)
	}
	if meta.StartUnix != c.world.Start.Unix() {
		return fmt.Errorf("checkpoint start time %d does not match the world's %d", meta.StartUnix, c.world.Start.Unix())
	}
	if meta.ChunkRows != c.store.ChunkRows() || meta.Compress != c.store.Compressed() {
		return fmt.Errorf("checkpoint layout (chunkRows=%d compress=%v) does not match the configured store (chunkRows=%d compress=%v)",
			meta.ChunkRows, meta.Compress, c.store.ChunkRows(), c.store.Compressed())
	}

	var sink *classify.MemStore
	switch {
	case meta.Compress:
		sink = classify.NewMemStoreCompressed(meta.ChunkRows)
	default:
		sink = classify.NewMemStoreChunked(meta.ChunkRows)
	}
	for ci := range blocks {
		if err := sink.RestoreChunk(blocks[ci], classes[ci]); err != nil {
			return err
		}
	}

	in, err := classify.NewInternerFromStrings(meta.FQDNs)
	if err != nil {
		return err
	}
	countries := make([]geodata.Country, len(meta.Countries))
	for i, s := range meta.Countries {
		countries[i] = geodata.Country(s)
	}
	ds := &classify.Dataset{
		Store:     sink,
		FQDNs:     in,
		Countries: countries,
		Visits:    meta.Visits,
		Start:     c.world.Start,
	}
	for _, dom := range meta.Publishers {
		p, ok := c.pubs[dom]
		if !ok {
			return fmt.Errorf("checkpoint publisher %q unknown to the world", dom)
		}
		ds.Publishers = append(ds.Publishers, p)
	}
	if err := checkRowIDs(ds); err != nil {
		return err
	}

	semi := classify.NewLiveSemi(ds, c.cfg.Workers)
	semi.Extend()
	c.semi.Close()
	c.semi = semi
	c.store = sink
	c.merger = classify.NewMergerOver(ds)
	c.nextSeq = make(map[int32]uint64, len(meta.Seqs))
	for _, s := range meta.Seqs {
		c.nextSeq[s.User] = s.Next
	}
	c.epochs = append([]EpochStat(nil), meta.Epochs...)
	c.segs = meta.Segs
	c.internClone, c.internCloneLen = nil, 0
	c.snap.Store(c.buildSnapshot(nil, 0, nil))
	return nil
}

// checkRowIDs rejects a restored dataset whose rows name an FQDN,
// referrer, country or publisher id outside its tables, as MergeExports
// rejects such an export: the restoring Extend and every later query
// index the tables with them.
func checkRowIDs(ds *classify.Dataset) error {
	limits := [...]struct {
		name string
		col  classify.ColID
		n    int
	}{
		{"FQDN", classify.ColFQDN, ds.FQDNs.Len()},
		{"referrer", classify.ColRefFQDN, ds.FQDNs.Len()},
		{"country", classify.ColCountry, len(ds.Countries)},
		{"publisher", classify.ColPublisher, len(ds.Publishers)},
	}
	pc := classify.GetProj()
	defer classify.PutProj(pc)
	for ci := 0; ci < ds.Store.NumChunks(); ci++ {
		classify.ProjChunkAt(ds.Store, ci, pc)
		for _, l := range limits {
			for i, v := range pc.Wide(l.col) {
				if v >= uint64(l.n) {
					return fmt.Errorf("%w: chunk %d row %d: %s id %d outside the %d-entry table", errCkptCorrupt, ci, i, l.name, v, l.n)
				}
			}
		}
	}
	return nil
}

// listCheckpoints returns the checkpoint epochs present in dir,
// ascending.
func listCheckpoints(fs chaos.FS, dir string) ([]int, error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []int
	for _, e := range entries {
		var epoch int
		if _, err := fmt.Sscanf(e.Name(), ckptPattern, &epoch); err == nil && e.Name() == ckptName(epoch) {
			out = append(out, epoch)
		}
	}
	sort.Ints(out)
	return out, nil
}

// removeOrphanSegments deletes the block segments under DataDir that
// the loaded checkpoint does not name: leftovers of a crash between a
// segment's publish and its checkpoint's. Called by Recover with c.mu
// held, after the newest checkpoint restored.
func (c *Collector) removeOrphanSegments() error {
	named := make(map[string]bool, len(c.segs))
	for _, s := range c.segs {
		named[segName(s.First)] = true
	}
	entries, err := c.cfg.fs().ReadDir(c.cfg.DataDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var first int
		if _, err := fmt.Sscanf(e.Name(), segPattern, &first); err != nil || e.Name() != segName(first) || named[e.Name()] {
			continue
		}
		if err := c.cfg.fs().Remove(filepath.Join(c.cfg.DataDir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes name under dir via temp + rename + dir sync,
// so the file either exists complete or not at all. A failure at any
// step (including the injected ones) leaves at most a stray .tmp file,
// which listCheckpoints ignores.
func writeFileAtomic(fs chaos.FS, dir, name string, data []byte) error {
	tmp, err := fs.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer fs.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}
