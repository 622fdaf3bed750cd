package ingest

import (
	"bytes"
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
// any byte string goes through decodeCheckpoint, every chunk it yields
// through RestoreChunk on a compressed store, and the restored store
// through one full projected scan. The outcome must be an error or a
// clean scan — never a panic. The body checksum is recomputed first so
// mutations reach the meta, chunk-table and block parsers behind it
// (TestCorruptCheckpointRefused covers the checksum itself).
//
// Run with: go test -fuzz FuzzDecodeCheckpoint ./internal/ingest/
func FuzzDecodeCheckpoint(f *testing.F) {
	world, evs, _ := rig(f)
	cfg := durableCfg("", true)
	c := NewCollector(world, cfg)
	for _, b := range batchList(evs, 137)[:4] {
		if _, err := c.Ingest(b); err != nil {
			f.Fatal(err)
		}
	}
	c.Flush()
	ckpt, _, err := c.EncodeSnapshot()
	c.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt)
	f.Add(ckpt[:len(ckpt)/2])
	f.Add(forgeRetiredTag(f, ckpt))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= len(ckptMagic)+4 {
			data = resealCheckpoint(append([]byte(nil), data...))
		}
		_, blocks, classes, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		st := classify.NewMemStoreCompressed(cfg.ChunkRows)
		for ci := range blocks {
			if err := st.RestoreChunk(blocks[ci], classes[ci]); err != nil {
				return
			}
		}
		st.ScanCols(classify.AllCols, func(_ int, pc *classify.ProjChunk) {
			for col := classify.ColURLHash; col <= classify.ColFlags; col++ {
				pc.Wide(col)
			}
		})
	})
}
