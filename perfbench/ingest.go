package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/experiments"
	"crossborder/internal/ingest"
)

// The ingest workload's cadences: collectd's default epoch and an
// auto-checkpoint every 4 MiB of journal.
const (
	epochEvents     = 1 << 15
	checkpointBytes = 4 << 20
	walSync         = "interval"
)

// In the traced runs one call stands for the reader's query every
// traceQueryEvery uploads, and for a fan-in poll every traceRoundEvery.
const (
	traceQueryEvery = 16
	traceRoundEvery = 64
)

// ingestPass replays the capture over HTTP into one durable collector
// behind collectd's server and limits, with the reader querying beside
// the uploader; then flushes, reads all 20 artifacts, closes the
// collector and recovers it from its data dir.
func ingestPass(ctx context.Context, in *inputs, ref []string, dir string, checkRecovered bool) (r passResult, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	cfg := ingest.Config{EpochEvents: epochEvents, DataDir: dir, WALSync: walSync, CheckpointBytes: checkpointBytes}
	c := ingest.NewCollector(in.world, cfg)
	if _, err := c.Recover(); err != nil {
		c.Close()
		return r, fmt.Errorf("open collector: %w", err)
	}
	lb, err := serve(ingest.NewServer(c, ingest.WithLimits(collectdLimits)))
	if err != nil {
		c.Close()
		return r, err
	}
	cnt, hc, closeIdle := newCounter()
	defer closeIdle()
	cl := &ingest.Client{Base: lb.URL, HTTP: hc, Binary: true}
	route := func(int32) *ingest.Client { return cl }

	base := liveHeapMB()
	var (
		sawRows atomic.Bool
		wg      sync.WaitGroup
		qerr    error
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.queryMs, r.lateMs, qerr = runReader(stop, sawRows.Load, func(i int) error { return httpQuery(hc, lb.URL, i) })
	}()
	t0 := time.Now()
	r.uploadMs, r.events, err = upload(in.batches, route, &sawRows)
	tLast := time.Now()
	close(stop)
	wg.Wait()
	var texts []string
	if err == nil {
		err = qerr
	}
	if err == nil {
		_, _, err = cl.Flush()
	}
	if err == nil {
		texts, err = fetchArtifacts(cl, experiments.IDs())
	}
	r.intake, r.answer = tLast.Sub(t0), time.Since(tLast)
	r.retainedMB = liveHeapMB() - base
	lb.close()
	c.Close()
	r.attempted, r.failed = cnt.attempted.Load(), cnt.failed.Load()
	if err != nil {
		return r, err
	}
	if err := checkDigests("ingest", digests(texts), ref); err != nil {
		return r, err
	}

	rc := ingest.NewCollector(in.world, cfg)
	defer rc.Close()
	t := time.Now()
	if _, err := rc.Recover(); err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.recover = time.Since(t)
	if checkRecovered {
		texts, err := snapshotArtifacts(ctx, rc.Snapshot())
		if err != nil {
			return r, err
		}
		if err := checkDigests("ingest after recovery", digests(texts), ref); err != nil {
			return r, err
		}
	}
	return r, nil
}

// snapshotArtifacts renders all 20 artifacts of a snapshot in-process.
func snapshotArtifacts(ctx context.Context, snap *ingest.Snapshot) ([]string, error) {
	ids := experiments.IDs()
	texts := make([]string, len(ids))
	for i, id := range ids {
		a, err := snap.Suite().Artifact(ctx, id)
		if err != nil {
			return nil, err
		}
		texts[i] = a.Render()
	}
	return texts, nil
}

// traceArtifacts computes each artifact in paper order, then renders
// them all, booking experiments.<id>_s and experiments.render_s.
func traceArtifacts(ctx context.Context, l *Ledger, su *experiments.Suite) ([]string, error) {
	ids := experiments.IDs()
	arts := make([]experiments.Artifact, len(ids))
	for i, id := range ids {
		var err error
		l.Time("experiments."+id+"_s", func() { arts[i], err = su.Artifact(ctx, id) })
		if err != nil {
			return nil, err
		}
	}
	texts := make([]string, len(ids))
	l.Time("experiments.render_s", func() {
		for i, a := range arts {
			texts[i] = a.Render()
		}
	})
	return texts, nil
}

// traceInputs builds the inputs inside the ledger: on the live route the
// world build is the collector's start-up and the capture is the
// browsing the extensions did.
func traceInputs(ctx context.Context, l *Ledger, seed int64, sz size) (*inputs, [][]byte, error) {
	in, err := buildInputs(ctx, seed, sz)
	if err != nil {
		return nil, nil, err
	}
	in.worldDur.book(l)
	l.Add("scenario.simulate_s", in.capture)
	raws := make([][]byte, len(in.batches))
	l.Time("ingest.encode_s", func() {
		for i, b := range in.batches {
			raws[i] = ingest.EncodeBinary(b)
		}
	})
	return in, raws, nil
}

// ingestTrace drives the ingest workload through the collector's public
// calls in-process, with the epoch and checkpoint cadences driven
// explicitly so that each lands in its own layer metric.
func ingestTrace(ctx context.Context, seed int64, sz size, ref []string, dir string) (*Ledger, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := newLedger()
	in, raws, err := traceInputs(ctx, l, seed, sz)
	if err != nil {
		return nil, err
	}
	cfg := ingest.Config{EpochEvents: 1 << 30, DataDir: dir, WALSync: walSync}
	c := ingest.NewCollector(in.world, cfg)
	defer c.Close()
	l.Time("ingest.open_s", func() { _, err = c.Recover() })
	if err != nil {
		return nil, err
	}
	srv := ingest.NewServer(c)
	commit := func() {
		l.Time("ingest.commit_s", func() { c.Flush() })
		l.Count("ingest.commits", 1)
	}
	var walBytes int64
	checkpoint := func() error {
		if c.PendingEvents() > 0 {
			commit()
		}
		var err error
		l.Time("ingest.checkpoint_s", func() { _, err = c.FlushCheckpoint() })
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		l.Count("ingest.checkpoints", 1)
		l.Count("ingest.checkpoint_bytes", newestCheckpointBytes(dir))
		walBytes = 0
		return nil
	}
	for i, raw := range raws {
		var b ingest.Batch
		l.Time("ingest.decode_s", func() { b, err = ingest.DecodeBinary(raw) })
		if err == nil {
			l.Time("ingest.accept_s", func() { _, err = c.Ingest(b) })
		}
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		// The collector journals exactly the encoded batch, so the
		// uncovered WAL grows by len(raw) per accepted batch.
		walBytes += int64(len(raw))
		if c.PendingEvents() >= epochEvents {
			commit()
		}
		if walBytes >= checkpointBytes {
			if err := checkpoint(); err != nil {
				return nil, err
			}
		}
		if i%traceQueryEvery == 0 && c.Snapshot().Rows() > 0 {
			l.Time("ingest.query_s", func() { err = handlerQuery(srv, i/traceQueryEvery) })
			if err != nil {
				return nil, err
			}
		}
	}
	if err := checkpoint(); err != nil { // the answer phase's /v1/flush
		return nil, err
	}
	snap := c.Snapshot()
	var su *experiments.Suite
	l.Time("scenario.inventory_s", func() { su = snap.Suite() })
	texts, err := traceArtifacts(ctx, l, su)
	if err != nil {
		return nil, err
	}
	c.Close()
	rc := ingest.NewCollector(in.world, cfg)
	defer rc.Close()
	var rs ingest.RecoveryStats
	l.Time("ingest.recover_s", func() { rs, err = rc.Recover() })
	l.Stop()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	var flips int64
	for _, e := range c.Epochs() {
		flips += int64(e.Flips)
	}
	l.Count("ingest.flips", flips)
	l.Count("wal.records_replayed", rs.Records)
	l.Count("classify.rows", int64(snap.Rows()))
	l.Count("store.resident_bytes", snap.Dataset().Store.Footprint().ResidentBytes)
	if rs.Rows != snap.Rows() {
		return l, fmt.Errorf("ingest: recovered %d rows, flushed %d", rs.Rows, snap.Rows())
	}
	return l, checkDigests("ingest", digests(texts), ref)
}

// newestCheckpointBytes returns the size of the newest checkpoint file.
func newestCheckpointBytes(dir string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")) // the pattern is valid
	if len(paths) == 0 {
		return 0
	}
	fi, err := os.Stat(paths[len(paths)-1])
	if err != nil {
		return 0
	}
	return fi.Size()
}
