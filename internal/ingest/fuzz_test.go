package ingest

import (
	"bytes"
	"hash/crc32"
	"reflect"
	"testing"

	"crossborder/internal/classify"
)

// FuzzDecodeBinary hardens the upload frame decoder: any byte string
// must either decode cleanly or return an error — never panic, and
// never allocate more than the input justifies (the event-count and
// length guards). Decoded batches must survive a re-encode/re-decode
// round trip, and valid encodings must decode to what was encoded.
//
// Run with: go test -fuzz FuzzDecodeBinary ./internal/ingest/
func FuzzDecodeBinary(f *testing.F) {
	// Seed corpus: valid batches of each shape plus canonical
	// truncations/corruptions, so coverage starts at the interesting
	// boundaries instead of random noise.
	seeds := [][]byte{
		EncodeBinary(sampleBatch()),
		EncodeBinary(Batch{User: 0, Seq: 0}),
		EncodeBinary(Batch{User: 1 << 30, Seq: 1 << 40, Events: []Event{
			{Kind: KindVisit, At: 0, Publisher: ""},
		}}),
		EncodeBinary(Batch{User: 3, Seq: 9, Events: []Event{
			{Kind: KindRequest, Publisher: "p.com", FQDN: "f.com", Path: "/", RefFQDN: ""},
		}}),
		[]byte("XBB1"),
		[]byte("XBB2\x00\x00\x00"),
		{},
		// Forged count: header says 2^52 events.
		append([]byte("XBB1"), 0x01, 0x00, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	if full := EncodeBinary(sampleBatch()); len(full) > 8 {
		f.Add(full[:len(full)/2]) // mid-frame truncation
		mut := append([]byte{}, full...)
		mut[6] ^= 0xFF // corrupt the header
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBinary(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode canonically and decode
		// back to itself.
		enc := EncodeBinary(b)
		b2, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		if b.User != b2.User || b.Seq != b2.Seq || len(b.Events) != len(b2.Events) {
			t.Fatalf("round trip changed the batch: %+v vs %+v", b, b2)
		}
		if len(b.Events) > 0 && !reflect.DeepEqual(b.Events, b2.Events) {
			t.Fatal("round trip changed the events")
		}
		// The canonical encoding of what we decoded can differ from the
		// input only in uvarint padding; it must never be longer.
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding (%d bytes) longer than accepted input (%d bytes)", len(enc), len(data))
		}
	})
}

// FuzzDecodeNDJSON gives the text decoder the same treatment.
func FuzzDecodeNDJSON(f *testing.F) {
	var buf bytes.Buffer
	EncodeNDJSON(&buf, sampleBatch())
	f.Add(buf.String())
	f.Add(`{"user":1,"seq":0,"n":1}` + "\n" + `{"k":"v","at":1,"pub":"a.com"}` + "\n")
	f.Add(`{"user":1,"seq":0,"n":9999999999}` + "\n")
	f.Add("")
	f.Add("{}")
	f.Fuzz(func(t *testing.T, data string) {
		b, err := DecodeNDJSON(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeNDJSON(&out, b); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		b2, err := DecodeNDJSON(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if b.User != b2.User || b.Seq != b2.Seq || len(b.Events) != len(b2.Events) {
			t.Fatalf("round trip changed the batch")
		}
	})
}

// FuzzDecodeCheckpoint hardens the checkpoint restore path end to end:
// any pair of checkpoint and block-segment bytes goes through
// decodeCheckpoint (every segment the manifest names reads as seg, so
// parseSegment runs on it), every chunk it yields through RestoreChunk
// on a compressed store, and the restored store through one full
// projected scan; a decoded payload then goes through restoreCheckpoint
// on one collector built per fuzz run, which rebuilds the fixpoint
// frontier from the rows, and its store through the same scan and
// its snapshot through the derived views (the three flow maps and
// Table 1). The outcome must be an error or a clean scan — never a
// panic. The body checksum and every manifest segment CRC are
// recomputed first so mutations reach the meta, chunk-table, segment
// and block parsers behind them (TestCorruptCheckpointRefused covers
// the checksums themselves).
//
// Run with: go test -fuzz FuzzDecodeCheckpoint ./internal/ingest/
func FuzzDecodeCheckpoint(f *testing.F) {
	inline, files, ds := fuzzCheckpoints(f)
	f.Add(inline, []byte(nil))
	f.Add(inline[:len(inline)/2], []byte(nil))
	forged, _ := forgeRetiredTag(f, inline, nil)
	f.Add(forged, []byte(nil))
	f.Add(files.ckpt, files.seg0)
	f.Add(files.ckpt, files.seg0[:len(files.seg0)/2])
	forgedCkpt, forgedSeg := forgeRetiredTag(f, files.ckpt, files.seg0)
	f.Add(forgedCkpt, forgedSeg)
	f.Add(rewriteMeta(files.ckpt, func(m *ckptMeta) { m.FQDNs = m.FQDNs[:1] }), files.seg0)
	f.Add(withRetiredMeta(f, files.ckpt, ds), files.seg0)
	world, _, _ := rig(f)
	c := NewCollector(world, durableCfg("", true))
	f.Cleanup(c.Close)

	f.Fuzz(func(t *testing.T, data, seg []byte) {
		if len(data) >= len(ckptMagic)+4 {
			data = resealCheckpoint(append([]byte(nil), data...))
			segCRC := crc32.Checksum(seg, ckptCastagnoli)
			if resealed := rewriteMeta(data, func(m *ckptMeta) {
				for i := range m.Segs {
					m.Segs[i].CRC32C = segCRC
				}
			}); resealed != nil {
				data = resealed
			}
		}
		meta, blocks, classes, err := decodeCheckpoint(data, func(ckptSeg) ([]byte, error) { return seg, nil })
		if err != nil {
			return
		}
		st := classify.NewMemStoreCompressed(durableCfg("", true).ChunkRows)
		for ci := range blocks {
			if err := st.RestoreChunk(blocks[ci], classes[ci]); err != nil {
				return
			}
		}
		scanAll(st)
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.restoreCheckpoint(meta, blocks, classes) == nil {
			scanAll(c.store)
			deriveViews(c.Snapshot())
		}
	})
}

// FuzzDecodeShardExport hardens the fan-in's intake, which mergerd runs
// on whatever a shard serves: any byte string goes through
// DecodeShardExport, MergeExports, one full projected scan of the
// merged store and the merged snapshot's derived views. The outcome
// must be an error or a clean scan — never a panic. The body checksum
// is recomputed first so mutations reach the parsers and the merge
// behind it. Seeds include a segment-bearing checkpoint, which an
// export must never be, and an export carrying the retired meta
// fields.
//
// Run with: go test -fuzz FuzzDecodeShardExport ./internal/ingest/
func FuzzDecodeShardExport(f *testing.F) {
	world, _, _ := rig(f)
	exp, files, ds := fuzzCheckpoints(f)
	f.Add(exp)
	f.Add(exp[:len(exp)/2])
	forged, _ := forgeRetiredTag(f, exp, nil)
	f.Add(forged)
	f.Add(files.ckpt)
	f.Add(withRetiredMeta(f, exp, ds))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(ckptMagic)+4 {
			data = resealCheckpoint(append([]byte(nil), data...))
		}
		ex, err := DecodeShardExport(data)
		if err != nil {
			return
		}
		snap, err := MergeExports(world, []*ShardExport{ex}, 1)
		if err != nil {
			return
		}
		scanAll(snap.Dataset().Store)
		deriveViews(snap)
	})
}

// fuzzCheckpoints returns the seed payloads of the checkpoint fuzzers:
// a durable compressed collector fed four uploads and checkpointed
// yields its self-contained export and its on-disk checkpoint plus
// segment 0, and the dataset both hold.
func fuzzCheckpoints(f *testing.F) ([]byte, *ckptFiles, *classify.Dataset) {
	world, evs, _ := rig(f)
	dir := f.TempDir()
	c := NewCollector(world, durableCfg(dir, true))
	defer c.Close()
	if _, err := c.Recover(); err != nil {
		f.Fatal(err)
	}
	for _, b := range batchList(evs, 137)[:4] {
		if _, err := c.Ingest(b); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := c.FlushCheckpoint(); err != nil {
		f.Fatal(err)
	}
	exp, _, err := c.EncodeSnapshot()
	if err != nil {
		f.Fatal(err)
	}
	return exp, loadCkptFiles(f, dir), c.Snapshot().Dataset()
}

// deriveViews computes a snapshot's derived views: the three flow maps
// (one join) and Table 1.
func deriveViews(snap *Snapshot) {
	snap.TruthAnalysis()
	snap.IPMapAnalysis()
	snap.MaxMindAnalysis()
	snap.Stats()
}

// scanAll runs one projected scan over every column of st.
func scanAll(st *classify.MemStore) {
	classify.ScanStoreCols(st, func(_ int, pc *classify.ProjChunk) {
		for col := classify.ColURLHash; col <= classify.ColFlags; col++ {
			pc.Wide(col)
		}
	})
}
