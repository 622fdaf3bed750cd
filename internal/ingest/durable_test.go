package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crossborder/internal/ingest/wal"
	"crossborder/internal/scenario"
)

// batchList renders the recorded streams as the deterministic upload
// sequence ingestAll uses: users ascending, each stream in batchSize
// slices. Tests replay prefixes of it, "crash", and re-send the whole
// list (the at-least-once client contract — duplicates are deduped).
func batchList(evs map[int32][]Event, batchSize int) []Batch {
	users := make([]int32, 0, len(evs))
	for uid := range evs {
		users = append(users, uid)
	}
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			if users[j] < users[i] {
				users[i], users[j] = users[j], users[i]
			}
		}
	}
	var out []Batch
	for _, uid := range users {
		stream := evs[uid]
		for off := 0; off < len(stream); off += batchSize {
			hi := off + batchSize
			if hi > len(stream) {
				hi = len(stream)
			}
			out = append(out, Batch{User: uid, Seq: uint64(off), Events: stream[off:hi]})
		}
	}
	return out
}

func sendAll(t *testing.T, c *Collector, batches []Batch) {
	t.Helper()
	for _, b := range batches {
		if _, err := c.Ingest(b); err != nil {
			t.Fatalf("ingest user %d seq %d: %v", b.User, b.Seq, err)
		}
	}
}

// assertSameLive asserts two live snapshots are equivalent in every
// field recovery must preserve: rows (including the exact Class byte —
// both sides run the same live fixpoint schedule), interner, tables,
// visits, stats, flow analyses, and epoch history modulo wall clock.
func assertSameLive(t *testing.T, got, want *Snapshot) {
	t.Helper()
	gd, wd := got.Dataset(), want.Dataset()
	if gd.Len() != wd.Len() {
		t.Fatalf("rows = %d, want %d", gd.Len(), wd.Len())
	}
	if gd.Visits != wd.Visits {
		t.Errorf("visits = %d, want %d", gd.Visits, wd.Visits)
	}
	if gd.FQDNs.Len() != wd.FQDNs.Len() {
		t.Fatalf("interner len = %d, want %d", gd.FQDNs.Len(), wd.FQDNs.Len())
	}
	for id := 0; id < wd.FQDNs.Len(); id++ {
		if gd.FQDNs.Str(uint32(id)) != wd.FQDNs.Str(uint32(id)) {
			t.Fatalf("interner id %d = %q, want %q", id, gd.FQDNs.Str(uint32(id)), wd.FQDNs.Str(uint32(id)))
		}
	}
	if len(gd.Publishers) != len(wd.Publishers) {
		t.Fatalf("publishers = %d, want %d", len(gd.Publishers), len(wd.Publishers))
	}
	for i := range wd.Publishers {
		if gd.Publishers[i].Domain != wd.Publishers[i].Domain {
			t.Fatalf("publisher %d = %q, want %q", i, gd.Publishers[i].Domain, wd.Publishers[i].Domain)
		}
	}
	gr, wr := gd.Rows(), wd.Rows()
	for i := range wr {
		if gr[i] != wr[i] {
			t.Fatalf("row %d = %+v, want %+v", i, gr[i], wr[i])
		}
	}
	if got.Stats() != want.Stats() {
		t.Errorf("stats = %+v, want %+v", got.Stats(), want.Stats())
	}
	if !got.TruthAnalysis().Equal(want.TruthAnalysis()) {
		t.Error("truth analysis diverges")
	}
	if !got.IPMapAnalysis().Equal(want.IPMapAnalysis()) {
		t.Error("ipmap analysis diverges")
	}
	if !got.MaxMindAnalysis().Equal(want.MaxMindAnalysis()) {
		t.Error("maxmind analysis diverges")
	}
	gh, wh := got.History(), want.History()
	if len(gh) != len(wh) {
		t.Fatalf("epoch history length = %d, want %d", len(gh), len(wh))
	}
	for i := range wh {
		gh[i].At, wh[i].At = 0, 0
		if gh[i] != wh[i] {
			t.Fatalf("epoch %d = %+v, want %+v", i, gh[i], wh[i])
		}
	}
}

func durableCfg(dir string, compress bool) Config {
	return Config{
		EpochEvents: 251, Workers: 3, ChunkRows: 64, Compress: compress,
		DataDir: dir, WALSync: "none",
	}
}

func recoverNew(t *testing.T, world *scenario.Scenario, cfg Config) (*Collector, RecoveryStats) {
	t.Helper()
	c := NewCollector(world, cfg)
	stats, err := c.Recover()
	if err != nil {
		c.Close()
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(c.Close)
	return c, stats
}

// TestDurableRecoveryRoundTrip: a collector that checkpoints mid-stream
// and then "crashes" (abandoned without flush, WAL tail pending)
// recovers — checkpoint load + WAL replay + client re-send — to a state
// identical to a memory-only collector that saw the whole stream
// uninterrupted. Compression changes the checkpointed store layout, so
// both modes are exercised.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			memCfg := durableCfg("", compress)
			memCfg.DataDir = ""
			ref := NewCollector(world, memCfg)
			defer ref.Close()
			sendAll(t, ref, batches)
			want := ref.Flush()

			dir := t.TempDir()
			c1, _ := recoverNew(t, world, durableCfg(dir, compress))
			half := len(batches) / 2
			sendAll(t, c1, batches[:half])
			if _, err := c1.FlushCheckpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			// Past the checkpoint: these live only in the WAL tail.
			sendAll(t, c1, batches[half:half+half/2])
			// Crash: no flush, no checkpoint, no close.

			c2, stats := recoverNew(t, world, durableCfg(dir, compress))
			if stats.CheckpointEpoch == 0 {
				t.Fatal("recovery found no checkpoint")
			}
			if stats.Records == 0 {
				t.Fatal("recovery replayed no WAL records despite an uncheckpointed tail")
			}
			// The client's at-least-once contract: re-send everything,
			// dedup accepts only what the crash lost.
			sendAll(t, c2, batches)
			got := c2.Flush()
			assertSameLive(t, got, want)
		})
	}
}

// TestCheckpointCoversAllWAL: recovering right after a checkpoint — the
// WAL holds nothing newer (only the empty post-rotation segment) — is
// the "checkpoint newer than all WAL segments" edge: zero records
// replay and the state is complete.
func TestCheckpointCoversAllWAL(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	memCfg := durableCfg("", true)
	memCfg.DataDir = ""
	ref := NewCollector(world, memCfg)
	defer ref.Close()
	sendAll(t, ref, batches)
	want := ref.Flush()

	dir := t.TempDir()
	c1, _ := recoverNew(t, world, durableCfg(dir, true))
	sendAll(t, c1, batches)
	if _, err := c1.FlushCheckpoint(); err != nil {
		t.Fatal(err)
	}
	c2, stats := recoverNew(t, world, durableCfg(dir, true))
	if stats.Records != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint covers the full WAL)", stats.Records)
	}
	assertSameLive(t, c2.Snapshot(), want)
}

// TestTornWALTailRecovered: bytes torn off the final WAL record by a
// crash are truncated on recovery; the lost events come back through
// the client re-send and the final state matches the uninterrupted run.
func TestTornWALTailRecovered(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	memCfg := durableCfg("", false)
	memCfg.DataDir = ""
	ref := NewCollector(world, memCfg)
	defer ref.Close()
	sendAll(t, ref, batches)
	want := ref.Flush()

	dir := t.TempDir()
	c1, _ := recoverNew(t, world, durableCfg(dir, false))
	sendAll(t, c1, batches)
	// Crash mid-write: tear bytes off the newest segment.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	c2, _ := recoverNew(t, world, durableCfg(dir, false))
	sendAll(t, c2, batches) // re-send restores the torn suffix
	assertSameLive(t, c2.Flush(), want)
}

// TestCorruptCheckpointRefused: a checkpoint that fails validation must
// fail recovery loudly — its WAL prefix was garbage-collected, so no
// fallback can be complete. The cases are a body that no longer matches
// its checksum, and a resealed block carrying the retired column tag 4
// in either store layout (the compressed store used to keep such a
// block unchecked and panic on the first scan).
func TestCorruptCheckpointRefused(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	unknownTag := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "restore chunk 0") && strings.Contains(err.Error(), "unknown column tag")
	}
	retire := func(b []byte) []byte { return forgeRetiredTag(t, b) }
	cases := []struct {
		name     string
		compress bool
		corrupt  func([]byte) []byte
		want     func(error) bool
	}{
		{"flipped byte", false, func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b },
			func(err error) bool { return errors.Is(err, errCkptCorrupt) }},
		{"retired tag wide", false, retire, unknownTag},
		{"retired tag compressed", true, retire, unknownTag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, _ := recoverNew(t, world, durableCfg(dir, tc.compress))
			sendAll(t, c1, batches)
			if _, err := c1.FlushCheckpoint(); err != nil {
				t.Fatal(err)
			}
			cks, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
			if err != nil || len(cks) != 1 {
				t.Fatalf("checkpoints = %v (%v), want exactly one", cks, err)
			}
			data, err := os.ReadFile(cks[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cks[0], tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			c2 := NewCollector(world, durableCfg(dir, tc.compress))
			defer c2.Close()
			if _, err := c2.Recover(); !tc.want(err) {
				t.Fatalf("recover = %v, want a corrupt-checkpoint error", err)
			}
		})
	}
}

// forgeRetiredTag returns a copy of an XCKP1 payload whose first chunk
// block has its first column tag rewritten to 4, the retired
// entropy-coded dictionary scheme, with the block's frame checksum and
// the checkpoint checksum both recomputed: a checkpoint as a build that
// still wrote tag 4 could have left it.
func forgeRetiredTag(tb testing.TB, ckpt []byte) []byte {
	tb.Helper()
	out := append([]byte(nil), ckpt...)
	_, blocks, _, err := decodeCheckpoint(out) // blocks alias out
	if err != nil || len(blocks) == 0 {
		tb.Fatalf("decode checkpoint: %v (%d blocks)", err, len(blocks))
	}
	b := blocks[0]
	_, k := binary.Uvarint(b[5:]) // [crc32c][flags][uvarint rows][tag]...
	b[5+k] = 4
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], ckptCastagnoli))
	return resealCheckpoint(out)
}

// resealCheckpoint recomputes an XCKP1 payload's body checksum in place.
func resealCheckpoint(data []byte) []byte {
	body := data[len(ckptMagic)+4:]
	binary.LittleEndian.PutUint32(data[len(ckptMagic):], crc32.Checksum(body, ckptCastagnoli))
	return data
}

// TestDurableGates: a durable collector rejects uploads before Recover
// and after BeginDrain, Recover refuses to run twice, and a checkpoint
// written under one store layout refuses to load under another.
func TestDurableGates(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()

	c := NewCollector(world, durableCfg(dir, false))
	defer c.Close()
	if c.Ready() {
		t.Fatal("durable collector born ready")
	}
	if _, err := c.Ingest(batches[0]); !errors.Is(err, ErrNotReady) {
		t.Fatalf("pre-recovery ingest = %v, want ErrNotReady", err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if !c.Ready() || !c.Durable() {
		t.Fatal("recovered collector not ready/durable")
	}
	if _, err := c.Recover(); err == nil {
		t.Fatal("second Recover succeeded")
	}
	sendAll(t, c, batches[:3])
	c.BeginDrain()
	if _, err := c.Ingest(batches[3]); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining ingest = %v, want ErrDraining", err)
	}
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Layout mismatch: same dir, compression flipped.
	bad := NewCollector(world, durableCfg(dir, true))
	defer bad.Close()
	if _, err := bad.Recover(); err == nil || !strings.Contains(err.Error(), "layout") {
		t.Fatalf("layout-mismatch recover = %v, want layout error", err)
	}
}

// TestWALSyncPolicies: the collector round-trips under every sync
// policy flag spelling, and an unknown policy is rejected up front.
func TestWALSyncPolicies(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	for _, pol := range []string{"always", "interval", "none"} {
		cfg := durableCfg(t.TempDir(), false)
		cfg.WALSync = pol
		c, _ := recoverNew(t, world, cfg)
		sendAll(t, c, batches[:4])
		if _, err := c.FlushCheckpoint(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	}
	cfg := durableCfg(t.TempDir(), false)
	cfg.WALSync = "sometimes"
	c := NewCollector(world, cfg)
	defer c.Close()
	if _, err := c.Recover(); err == nil {
		t.Fatal("unknown sync policy accepted")
	}
	if _, err := wal.ParsePolicy("sometimes"); err == nil {
		t.Fatal("wal.ParsePolicy accepted garbage")
	}
}
