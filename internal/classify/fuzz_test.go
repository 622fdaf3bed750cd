package classify

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzDecodeChunk hardens the chunk-block decoder: any byte string
// must either decode cleanly or return an error — never panic, and
// never allocate beyond what the validated row count justifies (forged
// lengths, dictionary sizes, column tags and LZ4 streams are all
// checked before memory moves). Anything that decodes must survive a
// re-encode/re-decode round trip with identical columns.
//
// Run with: go test -fuzz FuzzDecodeChunk ./internal/classify/
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	cc := GetCodec()
	mk := func(n int) []byte {
		return cc.EncodeBlock(chunkOf(codecRows(rng, n)), nil)
	}
	valid := mk(700)
	// The same chunk in the pre-section legacy frame (flags==0, no zone
	// map): old blocks must keep decoding, and the fuzzer should mutate
	// around both frame shapes.
	cc.noSections = true
	legacy := cc.EncodeBlock(chunkOf(codecRows(rng, 300)), nil)
	legacy = append([]byte(nil), legacy...)
	cc.noSections = false
	seeds := [][]byte{
		valid,
		cc.EncodeBlock(chunkOf(randomRows(rng, 700, 60)), nil), // high-entropy columns fall back to raw
		mk(1),
		mk(64),
		cc.EncodeBlock(chunkOf(make([]Row, 128)), nil), // all-constant columns
		legacy,
		{},
		valid[:5],
		valid[:len(valid)/2],
	}
	// Canonical corruptions: flipped payload byte (checksum), forged row
	// count (declared-size guards) and a column tag rewritten to the
	// retired tag 4 (unknown-tag guard), resealed so validation proceeds
	// past the checksum.
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x10
	seeds = append(seeds, flip)
	forged := append([]byte(nil), valid[:5]...)
	forged = binary.AppendUvarint(forged, 1<<40)
	forged = append(forged, valid[5:]...)
	seeds = append(seeds, resealCRC(forged), withColumnTag(valid, 4))
	PutCodec(cc)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := &Chunk{}
		if err := DecodeBlockInto(data, -1, buf); err != nil {
			return
		}
		n := len(buf.URLHash)
		buf.Class = make([]Class, n)
		cc := GetCodec()
		defer PutCodec(cc)
		enc := cc.EncodeBlock(buf, nil)
		re := &Chunk{}
		if err := DecodeBlockInto(enc, n, re); err != nil {
			t.Fatalf("re-decode of re-encoded chunk failed: %v", err)
		}
		re.Class = make([]Class, n)
		for i := 0; i < n; i++ {
			a, b := buf.Row(i), re.Row(i)
			if a != b {
				t.Fatalf("round trip changed row %d: %+v vs %+v", i, a, b)
			}
		}
	})
}
