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

// FuzzEncodeChunk hardens the encoder's dictionary table and LZ pass:
// the fuzz bytes choose the row count and, per column, the distinct
// count, the longest run and the key set — random values, values equal
// modulo 2^k (they differ only above bit k), values sharing their high
// bits (they differ only below bit k), or dense values. Every chunk
// must decode back through DecodeBlockInto with the reference
// encoder's zone map.
//
// Run with: go test -run=NONE -fuzz FuzzEncodeChunk -fuzzminimizetime 1s ./internal/classify/
func FuzzEncodeChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x40, 0, 7, 0x0f, 0xff, 1, 20, 1, 0, 0x10, 0, 40, 2, 3, 0x0f, 0xff, 1, 60, 3})
	f.Add([]byte{0x0f, 0xff, 9, 0x0f, 0xff, 1, 12, 1, 0x0f, 0xff, 1, 3, 2, 0, 2, 64, 30, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzChunk(data)
		cc := GetCodec()
		defer PutCodec(cc)
		var rc refCodec
		checkAgainstReference(t, cc, &rc, c)
	})
}

// fuzzChunk builds the chunk FuzzEncodeChunk's bytes describe; missing
// bytes read as zero.
func fuzzChunk(data []byte) *Chunk {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + (next()<<8|next())%4096
	rng := rand.New(rand.NewSource(int64(next())))
	c := &Chunk{Class: make([]Class, n)}
	c.reset(n)
	vals := make([]uint64, n)
	for col := 0; col < numCols; col++ {
		bits := 8 * colWidths[col]
		d := 1 + (next()<<8|next())%n
		maxRun := 1 + next()%64
		mode, k := next()%4, next()%bits
		low := uint64(1)<<k - 1
		base := rng.Uint64()
		keys := make([]uint64, d)
		for j := range keys {
			switch mode {
			case 0:
				keys[j] = rng.Uint64()
			case 1:
				keys[j] = base + uint64(j)<<k
			case 2:
				keys[j] = base&^low | uint64(j)&low
			default:
				keys[j] = base + uint64(j)
			}
			if bits < 64 {
				keys[j] &= 1<<bits - 1
			}
		}
		for i := 0; i < n; {
			v := keys[rng.Intn(d)]
			for r := 1 + rng.Intn(maxRun); r > 0 && i < n; r-- {
				vals[i] = v
				i++
			}
		}
		scatter(c, col, vals)
	}
	return c
}
