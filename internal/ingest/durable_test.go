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
	"slices"
	"strings"
	"testing"

	"crossborder/internal/chaos"
	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/geo"
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
// fallback can be complete. The checkpoint-file cases are a body that no
// longer matches its checksum and a segment manifest that is not
// contiguous from chunk 0, overlaps itself, or covers a partial chunk,
// and CRC-valid tables too short for the ids the rows name (the FQDN,
// country or publisher table cut to its first entry). The segment
// cases are a flipped byte (CRC), a truncation and a missing file. The
// block cases reseal chunk 0 — which now lives in segment 0 —
// with the retired column tag 4 in either store layout (the compressed
// store used to keep such a block unchecked and panic on the first
// scan).
func TestCorruptCheckpointRefused(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	corrupt := func(err error) bool { return errors.Is(err, errCkptCorrupt) }
	unknownTag := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "restore chunk 0") && strings.Contains(err.Error(), "unknown column tag")
	}
	retire := func(tb testing.TB, f *ckptFiles) { f.ckpt, f.seg0 = forgeRetiredTag(tb, f.ckpt, f.seg0) }
	manifest := func(edit func(testing.TB, *ckptMeta)) func(testing.TB, *ckptFiles) {
		return func(tb testing.TB, f *ckptFiles) {
			f.ckpt = rewriteMeta(f.ckpt, func(m *ckptMeta) { edit(tb, m) })
		}
	}
	cases := []struct {
		name     string
		compress bool
		corrupt  func(testing.TB, *ckptFiles)
		want     func(error) bool
	}{
		{"flipped byte", false, func(_ testing.TB, f *ckptFiles) { f.ckpt[len(f.ckpt)/2] ^= 0xff }, corrupt},
		{"retired tag wide", false, retire, unknownTag},
		{"retired tag compressed", true, retire, unknownTag},
		{"flipped segment byte", false, func(_ testing.TB, f *ckptFiles) { f.seg0[len(f.seg0)/2] ^= 0xff }, corrupt},
		{"truncated segment", true, func(_ testing.TB, f *ckptFiles) { f.seg0 = f.seg0[:len(f.seg0)-3] }, corrupt},
		{"missing segment", false, func(_ testing.TB, f *ckptFiles) { f.seg0 = nil },
			func(err error) bool { return errors.Is(err, os.ErrNotExist) }},
		{"non-contiguous segments", false, manifest(func(_ testing.TB, m *ckptMeta) { m.Segs[0].First = 1 }), corrupt},
		{"overlapping segments", true, manifest(func(_ testing.TB, m *ckptMeta) { m.Segs = append(m.Segs, m.Segs[0]) }), corrupt},
		{"segment chunk not full", false, func(tb testing.TB, f *ckptFiles) {
			// Chunk 0 (in segment 0) declares one row fewer, with its
			// first class byte dropped so every length still adds up.
			f.ckpt = dropClassByte(tb, rewriteMeta(f.ckpt, func(m *ckptMeta) { m.ChunkLens[0]--; m.Rows-- }))
		}, corrupt},
		{"FQDN table short", true, manifest(func(_ testing.TB, m *ckptMeta) { m.FQDNs = m.FQDNs[:1] }), corrupt},
		{"country table short", false, manifest(func(_ testing.TB, m *ckptMeta) { m.Countries = m.Countries[:1] }), corrupt},
		{"publisher table short", true, manifest(func(_ testing.TB, m *ckptMeta) { m.Publishers = m.Publishers[:1] }), corrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c1, _ := recoverNew(t, world, durableCfg(dir, tc.compress))
			sendAll(t, c1, batches)
			if _, err := c1.FlushCheckpoint(); err != nil {
				t.Fatal(err)
			}
			f := loadCkptFiles(t, dir)
			tc.corrupt(t, f)
			f.store(t)
			c2 := NewCollector(world, durableCfg(dir, tc.compress))
			defer c2.Close()
			if _, err := c2.Recover(); !tc.want(err) {
				t.Fatalf("recover = %v, want a corrupt-checkpoint error", err)
			}
			if c2.Ready() {
				t.Fatal("collector turned ready after a refused checkpoint")
			}
		})
	}
}

// ckptFiles is a data dir's single checkpoint and its first block
// segment, loaded for a test to corrupt and store back. A nil seg0 is
// stored as a deleted file.
type ckptFiles struct {
	ckptPath, seg0Path string
	ckpt, seg0         []byte
}

func loadCkptFiles(tb testing.TB, dir string) *ckptFiles {
	tb.Helper()
	cks, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(cks) != 1 {
		tb.Fatalf("checkpoints = %v (%v), want exactly one", cks, err)
	}
	f := &ckptFiles{ckptPath: cks[0], seg0Path: filepath.Join(dir, segName(0))}
	if f.ckpt, err = os.ReadFile(f.ckptPath); err != nil {
		tb.Fatal(err)
	}
	if f.seg0, err = os.ReadFile(f.seg0Path); err != nil {
		tb.Fatal(err)
	}
	return f
}

func (f *ckptFiles) store(tb testing.TB) {
	tb.Helper()
	if err := os.WriteFile(f.ckptPath, f.ckpt, 0o644); err != nil {
		tb.Fatal(err)
	}
	var err error
	if f.seg0 == nil {
		err = os.Remove(f.seg0Path)
	} else {
		err = os.WriteFile(f.seg0Path, f.seg0, 0o644)
	}
	if err != nil {
		tb.Fatal(err)
	}
}

// forgeRetiredTag returns copies of an XCKP1 payload and its first
// block segment (nil for a self-contained payload) in which chunk 0's
// block has its first column tag rewritten to 4, the retired
// entropy-coded dictionary scheme. The block's frame checksum, the
// segment's manifest CRC and the checkpoint checksum are all
// recomputed: a checkpoint as a build that still wrote tag 4 could have
// left it.
func forgeRetiredTag(tb testing.TB, ckpt, seg []byte) ([]byte, []byte) {
	tb.Helper()
	out := append([]byte(nil), ckpt...)
	if seg != nil {
		seg = append([]byte(nil), seg...)
	}
	meta, blocks, _, err := decodeCheckpoint(out, func(ckptSeg) ([]byte, error) { return seg, nil })
	if err != nil || len(blocks) == 0 {
		tb.Fatalf("decode checkpoint: %v (%d blocks)", err, len(blocks))
	}
	// b aliases seg if a segment holds chunk 0, else out.
	b := blocks[0]
	_, k := binary.Uvarint(b[5:]) // [crc32c][flags][uvarint rows][tag]...
	b[5+k] = 4
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], ckptCastagnoli))
	if len(meta.Segs) == 0 {
		return resealCheckpoint(out), nil
	}
	return rewriteMeta(out, func(m *ckptMeta) { m.Segs[0].CRC32C = crc32.Checksum(seg, ckptCastagnoli) }), seg
}

// resealCheckpoint recomputes an XCKP1 payload's body checksum in place.
func resealCheckpoint(data []byte) []byte {
	body := data[len(ckptMagic)+4:]
	binary.LittleEndian.PutUint32(data[len(ckptMagic):], crc32.Checksum(body, ckptCastagnoli))
	return data
}

// rewriteMeta returns a copy of an XCKP1 payload with its meta JSON
// edited and the body checksum recomputed, or nil when the payload has
// no parseable meta.
func rewriteMeta(data []byte, edit func(*ckptMeta)) []byte {
	var meta ckptMeta
	return rewriteHead(data, func(head []byte) []byte {
		if json.Unmarshal(head, &meta) != nil {
			return nil
		}
		edit(&meta)
		head, _ = json.Marshal(&meta) // nil on error: no payload
		return head
	})
}

// rewriteHead returns a copy of an XCKP1 payload with its meta bytes
// replaced by edit's result and the body checksum recomputed, or nil
// when the payload has no meta or edit returns nil.
func rewriteHead(data []byte, edit func([]byte) []byte) []byte {
	if len(data) < len(ckptMagic)+4 {
		return nil
	}
	body := data[len(ckptMagic)+4:]
	headLen, n := binary.Uvarint(body)
	if n <= 0 || headLen > uint64(len(body)-n) {
		return nil
	}
	head := edit(body[n : n+int(headLen)])
	if head == nil {
		return nil
	}
	out := append([]byte(nil), data[:len(ckptMagic)+4]...)
	out = binary.AppendUvarint(out, uint64(len(head)))
	out = append(out, head...)
	return resealCheckpoint(append(out, body[n+int(headLen):]...))
}

// withRetiredMeta returns a copy of an XCKP1 payload holding ds whose
// meta also carries the fields older builds wrote and readers now
// derive. The fixpoint and stats fields hold the values they wrote:
// the LTF (every FQDN id with a tracking row, ascending), the
// candidate rows (clean, with arguments and a referrer), the settled
// row count, and the distinct user and FQDN ids (ascending). The three
// flow maps (truth, ipmap, maxmind) come in their old
// {flows:[{src,dst,n}],unknown} shape with forged counts that disagree
// with the rows, so a reader that still trusted them would serve them.
func withRetiredMeta(tb testing.TB, data []byte, ds *classify.Dataset) []byte {
	tb.Helper()
	var ltf, fqdns []uint32
	var users []int32
	cand := []int{} // written as [], not null
	for i, r := range ds.Rows() {
		if r.Class.IsTracking() {
			ltf = append(ltf, r.FQDN)
		} else if r.Flags&classify.FlagHasArgs != 0 && r.RefFQDN != 0 {
			cand = append(cand, i)
		}
		users = append(users, r.User)
		fqdns = append(fqdns, r.FQDN)
	}
	for _, ids := range []*[]uint32{&ltf, &fqdns} {
		slices.Sort(*ids)
		*ids = slices.Compact(*ids)
	}
	slices.Sort(users)
	type flowCount struct {
		Src string `json:"src"`
		Dst string `json:"dst"`
		N   int64  `json:"n"`
	}
	type flowMap struct {
		Flows   []flowCount `json:"flows"`
		Unknown int64       `json:"unknown"`
	}
	forged := func(n int64) flowMap {
		return flowMap{Flows: []flowCount{{"DE", "US", n}, {"ES", "ES", 1}}, Unknown: n + 7}
	}
	retired := map[string]any{
		"ltf": ltf, "cand": cand, "settled_rows": ds.Len(), "users": slices.Compact(users), "fqdn_seen": fqdns,
		"truth": forged(1 << 20), "ipmap": forged(1 << 21), "maxmind": forged(1 << 22),
	}
	out := rewriteHead(data, func(head []byte) []byte {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(head, &m); err != nil {
			tb.Fatal(err)
		}
		for k, v := range retired {
			raw, err := json.Marshal(v)
			if err != nil {
				tb.Fatal(err)
			}
			m[k] = raw
		}
		head, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		return head
	})
	if out == nil {
		tb.Fatal("payload has no meta")
	}
	return out
}

// TestRetiredMetaCheckpointRecovers: a checkpoint whose meta still
// carries the fields older builds wrote (the fixpoint frontier, the
// stats sets and flow maps whose counts disagree with the rows)
// recovers to the same live state, its flow maps recomputed from the
// rows, and the recovered collector finishes the stream, retransmits
// included, exactly as one that never restarted.
func TestRetiredMetaCheckpointRecovers(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	half := len(batches) / 2
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			c, _ := recoverNew(t, world, durableCfg(dir, compress))
			sendAll(t, c, batches[:half])
			snap, err := c.FlushCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			f := loadCkptFiles(t, dir)
			f.ckpt = withRetiredMeta(t, f.ckpt, snap.Dataset())
			if !bytes.Contains(f.ckpt, []byte(`"settled_rows"`)) || !bytes.Contains(f.ckpt, []byte(`"maxmind"`)) {
				t.Fatal("rewritten checkpoint lacks the retired fields")
			}
			f.store(t)

			rec, _ := recoverNew(t, world, durableCfg(dir, compress))
			assertFlowsRescan(t, "recovered", rec.Snapshot())
			assertSameLive(t, rec.Snapshot(), snap)
			sendAll(t, rec, batches)
			ref := NewCollector(world, durableCfg("", compress))
			defer ref.Close()
			sendAll(t, ref, batches[:half])
			ref.Flush()
			sendAll(t, ref, batches[half:])
			assertSameLive(t, rec.Flush(), ref.Flush())
		})
	}
}

// assertFlowsRescan checks that a snapshot's three flow maps equal one
// core.Analyze per service over its dataset; label prefixes failures.
func assertFlowsRescan(t *testing.T, label string, snap *Snapshot) {
	t.Helper()
	ds, world := snap.Dataset(), snap.world
	for _, f := range []struct {
		name string
		got  *core.Analysis
		svc  geo.Service
	}{
		{"truth", snap.TruthAnalysis(), world.Truth},
		{"ipmap", snap.IPMapAnalysis(), world.IPMap},
		{"maxmind", snap.MaxMindAnalysis(), world.MaxMind},
	} {
		if want := core.Analyze(ds, f.svc); !f.got.Equal(want) {
			t.Errorf("%s: %s flow map: %d flows (%d unknown), rescan %d (%d)",
				label, f.name, f.got.Total(), f.got.Unknown(), want.Total(), want.Unknown())
		}
	}
}

// dropClassByte removes the first body byte after an XCKP1 payload's
// meta — chunk 0's first class byte when a segment holds chunk 0 — and
// recomputes the body checksum.
func dropClassByte(tb testing.TB, data []byte) []byte {
	tb.Helper()
	off := len(ckptMagic) + 4
	headLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		tb.Fatal("bad meta length")
	}
	at := off + n + int(headLen)
	return resealCheckpoint(append(data[:at:at], data[at+1:]...))
}

// TestCheckpointWritesEachBlockOnce pins the write-once discipline in
// both store layouts: a checkpoint with no newly sealed chunk writes no
// segment, one after sealing k chunks writes exactly one segment of k
// blocks starting at the first uncovered chunk, earlier segments stay
// byte-identical, and /v1/stats' last_checkpoint_bytes counts exactly
// the checkpoint file plus the new segment.
func TestCheckpointWritesEachBlockOnce(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir, compress)
			c, _ := recoverNew(t, world, cfg)
			seen := map[string][]byte{}
			covered, sawNone := 0, false
			checkpoint := func() {
				t.Helper()
				if _, err := c.FlushCheckpoint(); err != nil {
					t.Fatal(err)
				}
				full := c.Snapshot().Dataset().Len() / cfg.ChunkRows
				files := segmentFiles(t, dir)
				for name, b := range seen {
					if !bytes.Equal(files[name], b) {
						t.Fatalf("segment %s changed after a later checkpoint", name)
					}
				}
				var fresh []string
				for name := range files {
					if _, ok := seen[name]; !ok {
						fresh = append(fresh, name)
					}
				}
				ckpts, err := listCheckpoints(chaos.OS, dir)
				if err != nil || len(ckpts) != 1 {
					t.Fatalf("checkpoints = %v (%v), want exactly one", ckpts, err)
				}
				name := ckptName(ckpts[0])
				meta, _, _, err := readCheckpoint(chaos.OS, dir, name)
				if err != nil {
					t.Fatal(err)
				}
				st, err := os.Stat(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				wrote := st.Size()
				if k := full - covered; k == 0 {
					if len(fresh) != 0 {
						t.Fatalf("no chunk sealed, yet the checkpoint wrote segments %v", fresh)
					}
					sawNone = true
				} else {
					if len(fresh) != 1 || fresh[0] != segName(covered) {
						t.Fatalf("sealed chunks [%d,%d) wrote segments %v, want just %s", covered, full, fresh, segName(covered))
					}
					last := meta.Segs[len(meta.Segs)-1]
					if last.First != covered || last.Count != k {
						t.Fatalf("manifest's newest segment = %+v, want %d blocks from chunk %d", last, k, covered)
					}
					blocks, err := parseSegment(files[fresh[0]], last)
					if err != nil || len(blocks) != k {
						t.Fatalf("segment %s: %d blocks, err %v; want %d", fresh[0], len(blocks), err, k)
					}
					wrote += int64(len(files[fresh[0]]))
				}
				if got := c.lastCkptBytes.Load(); got != wrote {
					t.Fatalf("last_checkpoint_bytes = %d, want %d (checkpoint file + new segment)", got, wrote)
				}
				if segsEnd(meta.Segs) != full {
					t.Fatalf("manifest covers %d chunks, store has %d full", segsEnd(meta.Segs), full)
				}
				seen, covered = files, full
			}
			step := len(batches)/5 + 1
			for off := 0; off < len(batches); off += step {
				sendAll(t, c, batches[off:min(off+step, len(batches))])
				checkpoint()
				checkpoint() // nothing new sealed
			}
			if len(seen) < 2 || !sawNone {
				t.Fatalf("wrote %d segments and saw a segment-free checkpoint %v; want several and one", len(seen), sawNone)
			}
			rec, _ := recoverNew(t, world, durableCfg(dir, compress))
			assertSameLive(t, rec.Snapshot(), c.Snapshot())
		})
	}
}

// segmentFiles reads every block segment under dir, by file name.
func segmentFiles(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "blocks-*.blk"))
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// TestAllInlineCheckpointMigrates: a checkpoint with every chunk inline
// (the format written before block segments: an export's layout plus
// the sequence numbers) recovers, and the next checkpoint moves every
// sealed chunk into segment 0.
func TestAllInlineCheckpointMigrates(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	half := len(batches) / 2
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			src := NewCollector(world, durableCfg("", compress))
			defer src.Close()
			sendAll(t, src, batches[:half])
			src.Flush()
			src.mu.Lock()
			src.commitMu.Lock()
			inline, err := src.encodeCheckpoint(0, nil, src.nextSeq)
			epoch := len(src.epochs)
			src.commitMu.Unlock()
			src.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ckptName(epoch)), inline, 0o644); err != nil {
				t.Fatal(err)
			}

			c, _ := recoverNew(t, world, durableCfg(dir, compress))
			assertSameLive(t, c.Snapshot(), src.Snapshot())
			if files := segmentFiles(t, dir); len(files) != 0 {
				t.Fatalf("recovery wrote segments %v", files)
			}
			sendAll(t, c, batches[half:])
			if _, err := c.FlushCheckpoint(); err != nil {
				t.Fatal(err)
			}
			files := segmentFiles(t, dir)
			full := c.Snapshot().Dataset().Len() / durableCfg("", compress).ChunkRows
			ckpts, err := listCheckpoints(chaos.OS, dir)
			if err != nil || len(ckpts) != 1 {
				t.Fatalf("checkpoints = %v (%v), want exactly one", ckpts, err)
			}
			meta, _, _, err := readCheckpoint(chaos.OS, dir, ckptName(ckpts[0]))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 1 || files[segName(0)] == nil || len(meta.Segs) != 1 || meta.Segs[0] != (ckptSeg{0, full, meta.Segs[0].CRC32C}) {
				t.Fatalf("migrating checkpoint wrote %d segments, manifest %+v; want segment 0 of all %d full chunks", len(files), meta.Segs, full)
			}
			rec, _ := recoverNew(t, world, durableCfg(dir, compress))
			assertSameLive(t, rec.Snapshot(), c.Snapshot())
		})
	}
}

// TestShardExportSelfContained: exports carry every block inline; a
// payload whose manifest names block segments — a checkpoint file
// served as an export — is refused instead of handing MergeExports nil
// blocks.
func TestShardExportSelfContained(t *testing.T) {
	world, evs, _ := rig(t)
	dir := t.TempDir()
	c, _ := recoverNew(t, world, durableCfg(dir, false))
	sendAll(t, c, batchList(evs, 137))
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatal(err)
	}
	exp, _, err := c.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeShardExport(exp); err != nil {
		t.Fatalf("export refused: %v", err)
	}
	f := loadCkptFiles(t, dir)
	if _, err := DecodeShardExport(f.ckpt); !errors.Is(err, errCkptCorrupt) {
		t.Fatalf("segment-bearing payload as export = %v, want a corrupt-checkpoint error", err)
	}
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
