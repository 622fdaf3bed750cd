package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"crossborder/internal/chaos"
)

// TestChaosTornCheckpointLeavesOldIntact: a checkpoint whose
// temp-then-rename publish is torn (injected rename failure) must
// report the error, leave the previous checkpoint as the newest valid
// one, and leave recovery fully correct — the WAL still covers
// everything the failed checkpoint would have. After healing, the next
// checkpoint succeeds and recovery matches the live state exactly.
func TestChaosTornCheckpointLeavesOldIntact(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()

	inj := chaos.New(0xBADD15C)
	cfg := durableCfg(dir, false)
	cfg.FS = chaos.NewFaultFS(inj, "ckpt", chaos.FSFaults{RenameFail: 1}, nil)

	c, _ := recoverNew(t, world, cfg)
	sendAll(t, c, batches[:len(batches)/2])
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under torn rename = %v, want injected failure", err)
	}
	if ckpts, err := listCheckpoints(chaos.OS, dir); err != nil || len(ckpts) != 0 {
		t.Fatalf("torn publish left checkpoints %v (err %v); want none", ckpts, err)
	}

	// The failure is transient, not poisoning: ingest continues and a
	// healed flush publishes a complete checkpoint.
	sendAll(t, c, batches[len(batches)/2:])
	inj.Heal()
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatalf("healed flush: %v", err)
	}
	ckpts, err := listCheckpoints(chaos.OS, dir)
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("healed publish left checkpoints %v (err %v); want exactly one", ckpts, err)
	}
	if _, _, _, err := readCheckpoint(chaos.OS, dir, ckptName(ckpts[0])); err != nil {
		t.Fatalf("healed checkpoint unreadable: %v", err)
	}

	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	assertSameLive(t, rec.Snapshot(), c.Snapshot())
}

// TestChaosShortCheckpointWriteIsTransient: tearing the checkpoint
// temp-file write mid-stream fails the flush but leaves only an
// ignorable .tmp stray; recovery replays the WAL and loses nothing.
func TestChaosShortCheckpointWriteIsTransient(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()

	// Build the journal with the real FS, then flip to an FS that tears
	// every write: the WAL is already laid down, so the only writes the
	// flush performs are the rotate header and the checkpoint body.
	c0, _ := recoverNew(t, world, durableCfg(dir, false))
	sendAll(t, c0, batches)
	c0.Close() // waits for the last cut epoch to publish
	want := c0.Snapshot()

	inj := chaos.New(7)
	cfg := durableCfg(dir, false)
	cfg.FS = chaos.NewFaultFS(inj, "ckpt", chaos.FSFaults{ShortWrite: 1}, nil)
	c, _ := recoverNew(t, world, cfg)
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under short writes = %v, want injected failure", err)
	}
	if ckpts, _ := listCheckpoints(chaos.OS, dir); len(ckpts) != 0 {
		t.Fatalf("short write published checkpoints %v; want none", ckpts)
	}

	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	assertSameLive(t, rec.Snapshot(), want)
}

// ckptFaultFS passes every call to the embedded FS except a checkpoint
// file's publish: with tearRename its rename goes to torn (a FaultFS
// that fails every rename and sync until healed), and with failSync the
// directory sync right after its rename does, so the checkpoint lands
// but the publish reports failure. Block segments always publish.
type ckptFaultFS struct {
	chaos.FS
	torn                 chaos.FS
	tearRename, failSync bool
	ckptRenamed          bool // the last rename published a checkpoint
}

func (f *ckptFaultFS) Rename(oldpath, newpath string) error {
	var epoch int
	_, err := fmt.Sscanf(filepath.Base(newpath), ckptPattern, &epoch)
	f.ckptRenamed = err == nil
	if f.ckptRenamed && f.tearRename {
		return f.torn.Rename(oldpath, newpath)
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *ckptFaultFS) SyncDir(dir string) error {
	renamed := f.ckptRenamed
	f.ckptRenamed = false
	if renamed && f.failSync {
		return f.torn.SyncDir(dir)
	}
	return f.FS.SyncDir(dir)
}

// newCkptFaultCollector opens a durable collector on dir whose
// checkpoint publishes can be faulted through the returned FS; heal the
// injector to end the faults.
func newCkptFaultCollector(t *testing.T, dir string) (*Collector, *ckptFaultFS, *chaos.Injector) {
	t.Helper()
	world, _, _ := rig(t)
	inj := chaos.New(0x5E6)
	fs := &ckptFaultFS{FS: chaos.OS, torn: chaos.NewFaultFS(inj, "ckpt", chaos.FSFaults{RenameFail: 1, SyncFail: 1}, nil)}
	cfg := durableCfg(dir, false)
	cfg.FS = fs
	c, _ := recoverNew(t, world, cfg)
	return c, fs, inj
}

// crashedAfter is the state a fault-free collector recovers to after it
// checkpointed batches[:third] and crashed with batches[third:2*third]
// journaled but uncheckpointed.
func crashedAfter(t *testing.T, batches []Batch) *Snapshot {
	t.Helper()
	world, _, _ := rig(t)
	third := len(batches) / 3
	dir := t.TempDir()
	ref, _ := recoverNew(t, world, durableCfg(dir, false))
	sendAll(t, ref, batches[:third])
	if _, err := ref.FlushCheckpoint(); err != nil {
		t.Fatal(err)
	}
	sendAll(t, ref, batches[third:2*third])
	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	return rec.Snapshot()
}

// tornManifestFlush checkpoints the first third of the stream cleanly,
// then flushes the second third with the manifest rename torn: the new
// block segment publishes, the checkpoint naming it does not. It
// returns the collector, the injector (heal it to end the fault), the
// segments the surviving checkpoint names, and the orphan's name.
func tornManifestFlush(t *testing.T, dir string, batches []Batch) (*Collector, *chaos.Injector, map[string][]byte, string) {
	t.Helper()
	c, fs, inj := newCkptFaultCollector(t, dir)
	third := len(batches) / 3
	sendAll(t, c, batches[:third])
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatal(err)
	}
	before, err := listCheckpoints(chaos.OS, dir)
	if err != nil || len(before) != 1 {
		t.Fatalf("checkpoints = %v (%v), want exactly one", before, err)
	}
	named := segmentFiles(t, dir)
	if len(named) == 0 {
		t.Fatal("the first checkpoint sealed no chunk")
	}

	sendAll(t, c, batches[third:2*third])
	fs.tearRename = true
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under a torn manifest rename = %v, want injected failure", err)
	}
	if after, err := listCheckpoints(chaos.OS, dir); err != nil || len(after) != 1 || after[0] != before[0] {
		t.Fatalf("checkpoints after the torn publish = %v (%v), want the previous %v still newest", after, err, before)
	}
	var orphan string
	for name, b := range segmentFiles(t, dir) {
		if old, ok := named[name]; !ok {
			orphan = name
		} else if !bytes.Equal(old, b) {
			t.Fatalf("named segment %s rewritten by the torn flush", name)
		}
	}
	if orphan == "" {
		t.Fatal("the torn flush published no segment")
	}
	return c, inj, named, orphan
}

// TestChaosTornManifestPublish: a checkpoint whose segment publishes but
// whose manifest rename is torn fails the flush and leaves the previous
// checkpoint newest; a healed flush succeeds, and recovery from it
// equals the live snapshot.
func TestChaosTornManifestPublish(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()
	c, inj, _, _ := tornManifestFlush(t, dir, batches)

	sendAll(t, c, batches[2*(len(batches)/3):])
	inj.Heal()
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatalf("healed flush: %v", err)
	}
	if ckpts, err := listCheckpoints(chaos.OS, dir); err != nil || len(ckpts) != 1 {
		t.Fatalf("healed publish left checkpoints %v (err %v); want exactly one", ckpts, err)
	}
	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	assertSameLive(t, rec.Snapshot(), c.Snapshot())
}

// TestRecoverRemovesOrphanSegments: a crash right after a torn manifest
// publish leaves a segment no checkpoint names. Recover deletes it,
// keeps the named segments byte for byte, and ends in the same state as
// a collector that crashed at the same point without the torn flush.
func TestRecoverRemovesOrphanSegments(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()
	_, _, named, orphan := tornManifestFlush(t, dir, batches)
	// Crash: the torn collector is abandoned.
	want := crashedAfter(t, batches)

	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	files := segmentFiles(t, dir)
	if _, ok := files[orphan]; ok {
		t.Fatalf("orphan segment %s survived recovery", orphan)
	}
	if len(files) != len(named) {
		t.Fatalf("segments after recovery = %d, want the %d named", len(files), len(named))
	}
	for name, b := range named {
		if !bytes.Equal(files[name], b) {
			t.Fatalf("named segment %s changed by recovery", name)
		}
	}
	assertSameLive(t, rec.Snapshot(), want)
}

// TestChaosManifestSyncFailKeepsSegment: a checkpoint whose rename lands
// but whose directory sync fails reports failure yet is the newest
// checkpoint on disk, so the segment it names is published for good.
// The next flush, whose own manifest rename is torn, must write the
// newly sealed chunks to a new segment rather than rewrite that one, and
// a crash right after recovers from the landed checkpoint.
func TestChaosManifestSyncFailKeepsSegment(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	third := len(batches) / 3
	dir := t.TempDir()
	c, fs, _ := newCkptFaultCollector(t, dir)

	sendAll(t, c, batches[:third])
	fs.failSync = true
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under a failed manifest dir sync = %v, want injected failure", err)
	}
	landed, err := listCheckpoints(chaos.OS, dir)
	if err != nil || len(landed) != 1 {
		t.Fatalf("checkpoints = %v (%v), want the landed one", landed, err)
	}
	named := segmentFiles(t, dir)
	if len(named) == 0 {
		t.Fatal("the landed checkpoint sealed no chunk")
	}

	sendAll(t, c, batches[third:2*third])
	fs.failSync, fs.tearRename = false, true
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under a torn manifest rename = %v, want injected failure", err)
	}
	if after, err := listCheckpoints(chaos.OS, dir); err != nil || len(after) != 1 || after[0] != landed[0] {
		t.Fatalf("checkpoints after the torn publish = %v (%v), want the landed %v still newest", after, err, landed)
	}
	files := segmentFiles(t, dir)
	if len(files) != len(named)+1 {
		t.Fatalf("segments after the torn flush = %d, want the %d named plus one", len(files), len(named))
	}
	for name, b := range named {
		if !bytes.Equal(files[name], b) {
			t.Fatalf("segment %s named by the landed checkpoint was rewritten", name)
		}
	}

	// Crash: the collector is abandoned.
	rec, _ := recoverNew(t, world, durableCfg(dir, false))
	assertSameLive(t, rec.Snapshot(), crashedAfter(t, batches))
}
