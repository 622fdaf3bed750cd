package classify

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"crossborder/internal/netsim"
)

// chunkOf scatters rows into a standalone chunk (Class included).
func chunkOf(rows []Row) *Chunk {
	c := &Chunk{}
	c.grow(len(rows))
	for _, r := range rows {
		c.appendRow(r)
	}
	return c
}

// chunksEqual compares the nine wide columns (Class is store-owned and
// excluded: DecodeBlock leaves it untouched).
func chunksEqual(t testing.TB, got, want *Chunk, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := got.Row(i), want.Row(i)
		g.Class, w.Class = 0, 0
		if g != w {
			t.Fatalf("row %d: decoded %+v != encoded %+v", i, g, w)
		}
	}
}

// codecRows generates adversarially shaped columns: blocks of constant,
// monotone, low-cardinality and fully random stretches, so every
// encoding scheme gets exercised and compared against every other.
func codecRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	mode := 0
	for i := range rows {
		if i%97 == 0 {
			mode = rng.Intn(4)
		}
		switch mode {
		case 0: // constant-ish runs
			rows[i] = Row{User: 7, Day: 3, Country: 2, FQDN: 5, Publisher: 1}
		case 1: // monotone
			rows[i] = Row{URLHash: uint64(i) * 3, User: int32(i), Day: uint16(i % 300), FQDN: uint32(i % 11)}
		case 2: // low cardinality
			rows[i] = Row{
				URLHash: uint64(rng.Intn(7)), IP: netsim.IP(rng.Intn(5)),
				FQDN: uint32(rng.Intn(9)), RefFQDN: uint32(rng.Intn(3)),
				Flags: uint8(rng.Intn(4)),
			}
		default: // random
			rows[i] = Row{
				URLHash: rng.Uint64(), IP: netsim.IP(rng.Uint32()),
				FQDN: rng.Uint32(), RefFQDN: rng.Uint32(),
				Publisher: int32(rng.Uint32() >> 1), User: int32(rng.Uint32() >> 1),
				Day: uint16(rng.Uint32()), Country: uint8(rng.Uint32()), Flags: uint8(rng.Uint32()),
			}
		}
	}
	return rows
}

func TestCodecBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(3000)
		rows := codecRows(rng, n)
		c := chunkOf(rows)
		cc := GetCodec()
		block := cc.EncodeBlock(c, nil)
		PutCodec(cc)
		buf := &Chunk{}
		if err := DecodeBlockInto(block, n, buf); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		buf.Class = make([]Class, n)
		chunksEqual(t, buf, c, n)
	}
}

// goldenShapedRows generates rows shaped like the study's merge output:
// user-ordered visit runs, low-cardinality ids, Zipf-ish hosts.
func goldenShapedRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		visit := i / 30
		rows[i] = Row{
			URLHash:   uint64(rng.Intn(4000)),
			IP:        netsim.IP(zipfInt(rng, 500)),
			FQDN:      uint32(1 + zipfInt(rng, 300)),
			RefFQDN:   uint32(zipfInt(rng, 100)),
			Publisher: int32(visit % 80),
			User:      int32(visit / 200),
			Day:       uint16(visit % 120),
			Country:   uint8(visit / 500),
			Flags:     uint8(rng.Intn(12)),
		}
	}
	return rows
}

func TestCodecCompressesGoldenShapedChunks(t *testing.T) {
	// A golden-shaped chunk must compress well below half its raw size;
	// the study-level ratio gate lives in the root package's
	// compression test.
	rows := goldenShapedRows(rand.New(rand.NewSource(3)), 8192)
	c := chunkOf(rows)
	cc := GetCodec()
	defer PutCodec(cc)
	block := cc.EncodeBlock(c, nil)
	raw := len(rows) * spillRowBytes
	if len(block)*2 > raw {
		t.Fatalf("compressed block is %d bytes for %d raw (%.2fx); expected well over 2x",
			len(block), raw, float64(raw)/float64(len(block)))
	}
	buf := &Chunk{}
	if err := DecodeBlockInto(block, len(rows), buf); err != nil {
		t.Fatal(err)
	}
	buf.Class = make([]Class, len(rows))
	chunksEqual(t, buf, c, len(rows))
}

// refCodec is the reusable scratch of referenceEncodeBlock.
type refCodec struct {
	vals, dict               []uint64
	winner, cand, rawCol, lz []byte
	htab, chain              []int32
	zone                     ZoneMap
}

// referenceEncodeBlock is the column encoder this package used before
// the one-pass dictionary, kept as the oracle EncodeBlock is held to.
// Per column it sorts every value to build the dictionary, finds each
// row's index with a binary search, and runs LZ one byte at a time over
// the winner and, unless the winner is already under half of raw, over
// the raw bytes. It writes the same frame, zone map included (left in
// rc.zone).
func referenceEncodeBlock(rc *refCodec, c *Chunk, dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, frameHasSections)
	dst = binary.AppendUvarint(dst, uint64(c.Len()))
	rc.zone = ZoneMap{}
	for col := 0; col < numCols; col++ {
		rc.vals = c.gather(ColID(col), rc.vals)
		for i, v := range rc.vals {
			if i == 0 || v < rc.zone.Min[col] {
				rc.zone.Min[col] = v
			}
			if i == 0 || v > rc.zone.Max[col] {
				rc.zone.Max[col] = v
			}
		}
		dst = rc.encodeColumn(dst, col)
	}
	for _, cl := range c.Class {
		rc.zone.ClassBits |= 1 << cl
	}
	dst = appendZoneSection(dst, &rc.zone)
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], castagnoli))
	return dst
}

func (rc *refCodec) encodeColumn(dst []byte, col int) []byte {
	width := colWidths[col]
	vals := rc.vals
	n := len(vals)
	rawSize := n * width
	if n == 0 {
		dst = append(dst, colRaw)
		dst = binary.AppendUvarint(dst, uint64(rawSize))
		return appendRawVals(dst, vals, width)
	}
	rleSize := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && vals[j] == vals[i] {
			j++
		}
		rleSize += uvarintLen(uint64(j-i)) + uvarintLen(vals[i])
		i = j
	}
	rc.dict = append(rc.dict[:0], vals...)
	slices.Sort(rc.dict)
	rc.dict = slices.Compact(rc.dict)
	d := len(rc.dict)
	rc.zone.Distinct[col] = uint32(d)
	dictSize := uvarintLen(uint64(d)) + uvarintLen(rc.dict[0])
	for i := 1; i < d; i++ {
		dictSize += uvarintLen(rc.dict[i] - rc.dict[i-1])
	}
	packBits := bitsFor(d)
	packSize := dictSize + (n*packBits+7)/8

	tag, best := byte(colRaw), rawSize
	if rleSize < best {
		tag, best = colRLE, rleSize
	}
	if packSize < best {
		tag = colDict
	}
	rc.winner = rc.winner[:0]
	switch tag {
	case colRaw:
		rc.winner = appendRawVals(rc.winner, vals, width)
	case colRLE:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			rc.winner = binary.AppendUvarint(rc.winner, uint64(j-i))
			rc.winner = binary.AppendUvarint(rc.winner, vals[i])
			i = j
		}
	case colDict:
		rc.winner = binary.AppendUvarint(rc.winner, uint64(d))
		rc.winner = binary.AppendUvarint(rc.winner, rc.dict[0])
		for i := 1; i < d; i++ {
			rc.winner = binary.AppendUvarint(rc.winner, rc.dict[i]-rc.dict[i-1])
		}
		var acc uint64
		var nb uint
		for _, v := range vals {
			k, _ := slices.BinarySearch(rc.dict, v)
			acc |= uint64(k) << nb
			nb += uint(packBits)
			for nb >= 8 {
				rc.winner = append(rc.winner, byte(acc))
				acc >>= 8
				nb -= 8
			}
		}
		if nb > 0 {
			rc.winner = append(rc.winner, byte(acc))
		}
	}

	if cap(rc.htab) < lzHashLen {
		rc.htab = make([]int32, lzHashLen)
	}
	bestTag, bestPayload := tag, rc.winner
	if len(rc.chain) < len(rc.winner)+rawSize {
		rc.chain = make([]int32, len(rc.winner)+rawSize)
	}
	rc.lz = binary.AppendUvarint(rc.lz[:0], uint64(len(rc.winner)))
	if lz := lzCompress(rc.winner, rc.lz, rc.htab, rc.chain, 1); lz != nil && len(lz) < len(bestPayload) {
		rc.lz = lz
		bestTag, bestPayload = tag|colLZ4, lz
	}
	if tag != colRaw && 2*len(bestPayload) > rawSize {
		rc.rawCol = appendRawVals(rc.rawCol[:0], vals, width)
		rc.cand = binary.AppendUvarint(rc.cand[:0], uint64(rawSize))
		if lz := lzCompress(rc.rawCol, rc.cand, rc.htab, rc.chain, 1); lz != nil && len(lz) < len(bestPayload) {
			rc.cand = lz
			bestTag, bestPayload = colRaw|colLZ4, lz
		}
	}
	dst = append(dst, bestTag)
	dst = binary.AppendUvarint(dst, uint64(len(bestPayload)))
	return append(dst, bestPayload...)
}

// checkAgainstReference encodes c with cc and with the reference
// encoder: the block must decode back to c and carry the reference's
// zone map. It returns both block sizes.
func checkAgainstReference(t testing.TB, cc *ChunkCodec, rc *refCodec, c *Chunk) (got, want int) {
	t.Helper()
	block := cc.EncodeBlock(c, nil)
	ref := referenceEncodeBlock(rc, c, nil)
	n := c.Len()
	buf := &Chunk{}
	if err := DecodeBlockInto(block, n, buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	buf.Class = make([]Class, n)
	chunksEqual(t, buf, c, n)
	zm, err := BlockZoneMap(block)
	if err != nil {
		t.Fatalf("zone map: %v", err)
	}
	if *zm != rc.zone || cc.encZone != rc.zone {
		t.Fatalf("zone map %+v (encoder %+v) != reference %+v", *zm, cc.encZone, rc.zone)
	}
	return len(block), len(ref)
}

// TestEncodeMatchesReference holds EncodeBlock to the reference encoder
// on golden-shaped chunks, on every chunk of the benchmark's
// study-shaped capture and on adversarially shaped codecRows chunks:
// same decoded chunk, same zone map, and a block at most 1% larger.
func TestEncodeMatchesReference(t *testing.T) {
	cc := GetCodec()
	defer PutCodec(cc)
	var rc refCodec
	check := func(name string, c *Chunk) {
		t.Helper()
		got, want := checkAgainstReference(t, cc, &rc, c)
		t.Logf("%s, %d rows: %d bytes, reference %d", name, c.Len(), got, want)
		if got*100 > want*101 {
			t.Errorf("%s: %d-row block is %d bytes, reference %d (over 1%% larger)", name, c.Len(), got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8192, DefaultChunkRows, 1000} {
		check("golden-shaped", chunkOf(goldenShapedRows(rng, n)))
	}
	for trial := 0; trial < 8; trial++ {
		check("codecRows", chunkOf(codecRows(rng, 1+rng.Intn(3000))))
	}
	sc, order := benchCollector(t)
	ds, err := sc.mergeInto(order, NewMemStoreChunked(DefaultChunkRows), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Store.NumChunks(); i++ {
		check("study-shaped capture", wideChunk(ds.Store, i))
	}
}

// TestEncodeIndependentOfSeed: the dictionary table's hash key changes
// only the probe order, never the block.
func TestEncodeIndependentOfSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows := append(codecRows(rng, 2000), goldenShapedRows(rng, 2000)...)
	for i := range rows[:500] {
		rows[i].URLHash = uint64(i) << 40 // equal modulo 2^40
	}
	c := chunkOf(rows)
	var a, b ChunkCodec
	a.seed, b.seed = 1, 0x9e3779b97f4a7c15
	if !bytes.Equal(a.EncodeBlock(c, nil), b.EncodeBlock(c, nil)) {
		t.Fatal("blocks encoded under two table seeds differ")
	}
}

func zipfInt(rng *rand.Rand, n int) int {
	v := int(rng.ExpFloat64() * float64(n) / 6)
	if v >= n {
		v = n - 1
	}
	return v
}

func TestMemStoreCompressedMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, 3000, 60)
	wide := NewMemStoreChunked(256)
	comp := NewMemStoreCompressed(256)
	for _, r := range rows {
		wide.Append(r)
		comp.Append(r)
	}
	if comp.Len() != wide.Len() || comp.NumChunks() != wide.NumChunks() {
		t.Fatalf("shape mismatch: compressed %d rows/%d chunks, wide %d/%d",
			comp.Len(), comp.NumChunks(), wide.Len(), wide.NumChunks())
	}
	if !comp.Compressed() || comp.Footprint().SealedChunks == 0 {
		t.Fatal("compressed store did not seal any blocks")
	}
	a := (&Dataset{Store: wide}).Rows()
	b := (&Dataset{Store: comp}).Rows()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: wide %+v != compressed %+v", i, a[i], b[i])
		}
	}
	// The class column must stay resident and shared in compressed
	// mode: a write through Classes is visible through a projected view.
	comp.Classes(2)[9] = ClassSemiKeyword
	pc := ProjChunkAt(comp, 2, GetProj())
	defer PutProj(pc)
	if pc.Class[9] != ClassSemiKeyword {
		t.Fatal("class write not visible through projected compressed chunk")
	}
}

// TestSemiStagesOverCompressedStore: the fixpoint mutates Class through
// projected chunk views, so over a compressed store it must label every
// row exactly as one one-shot run over a wide store does, at every
// worker count, whether the rows arrive at once or in random epochs.
func TestSemiStagesOverCompressedStore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numFQDN := 40
	rows := randomRows(rng, 2500, numFQDN)
	in := internerOfSize(numFQDN)
	want := semiReference(t, &Dataset{FQDNs: in}, rows)

	for _, workers := range []int{1, 2, 3, 8} {
		for _, store := range []struct {
			name string
			mk   func() *MemStore
		}{
			{"wide", func() *MemStore { return NewMemStoreChunked(512) }},
			{"compressed", func() *MemStore { return NewMemStoreCompressed(512) }},
		} {
			for _, epochs := range []bool{false, true} {
				st := store.mk()
				ds := &Dataset{Store: st, FQDNs: in}
				ls := NewLiveSemi(ds, workers)
				for off := 0; off < len(rows); {
					end := len(rows)
					if epochs {
						end = min(off+1+rng.Intn(len(rows)/3), len(rows))
					}
					for _, r := range rows[off:end] {
						st.Append(r)
					}
					off = end
					ls.Extend()
				}
				ls.Close()
				got := ds.Rows()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("workers %d %s epochs=%v row %d: %+v != one-shot %+v",
							workers, store.name, epochs, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// corruptSpillStore builds a small compressed spill store for
// corruption tests.
func corruptSpillStore(t *testing.T) *MemStore {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, 1000, 50)
	sp, err := NewMemStoreSpilled(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sp.Append(r)
	}
	if err := sp.Seal(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

// loadChunk runs the projection path's error-returning load step on
// chunk i of st: the spill read and the frame parse a first column
// access performs before it panics on failure.
func loadChunk(st *MemStore, i int) error {
	pc := ProjChunkAt(st, i, GetProj())
	defer PutProj(pc)
	return pc.load()
}

func TestSpillChunkErrorsOnTruncation(t *testing.T) {
	sp := corruptSpillStore(t)
	if err := sp.file.f.Truncate(sp.blockStart(len(sp.ends)-1) + 3); err != nil {
		t.Fatal(err)
	}
	last := sp.NumChunks() - 1
	if err := loadChunk(sp, last); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("load on truncated file = %v, want truncation error", err)
	}
}

func TestSpillChunkErrorsOnBadChecksum(t *testing.T) {
	sp := corruptSpillStore(t)
	// Flip one payload byte mid-block; the frame checksum must catch it.
	if _, err := sp.file.f.WriteAt([]byte{0xA5}, sp.blockStart(1)+(sp.ends[1]-sp.blockStart(1))/2); err != nil {
		t.Fatal(err)
	}
	err := loadChunk(sp, 1)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("load on corrupted block = %v, want checksum error", err)
	}
}

func TestSpillChunkErrorsOnForgedSizes(t *testing.T) {
	sp := corruptSpillStore(t)
	// Rewrite block 0 in place with a forged declaration, recomputing
	// the checksum so validation proceeds past it: an over-large row
	// count (and the over-large payload lengths it implies) must be
	// rejected before any allocation happens.
	raw := make([]byte, sp.ends[0])
	if _, err := sp.file.f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), raw[:5]...)
	forged = binary.AppendUvarint(forged, 1<<50) // declared rows
	forged = append(forged, raw[5:]...)
	forged = resealCRC(forged[:len(raw)]) // keep the on-disk block length
	if _, err := sp.file.f.WriteAt(forged, 0); err != nil {
		t.Fatal(err)
	}
	err := loadChunk(sp, 0)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("load with forged row count = %v, want declared-size error", err)
	}
}

// resealCRC recomputes a block's frame checksum in place so validation
// proceeds past it to the forged field behind.
func resealCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
	return b
}

// withColumnTag returns a resealed copy of block whose first column tag
// is rewritten to tag.
func withColumnTag(block []byte, tag byte) []byte {
	b := append([]byte(nil), block...)
	_, k := binary.Uvarint(b[5:])
	b[5+k] = tag
	return resealCRC(b)
}

// TestDecodeBlockRejectsForgedInput feeds every corrupt frame through
// every frame reader: the wide decode, zone-map extraction, checkpoint
// restore into both store modes, and a projected column read (which
// panics, like every scan-path load failure).
func TestDecodeBlockRejectsForgedInput(t *testing.T) {
	const n = 600
	rng := rand.New(rand.NewSource(8))
	rows := randomRows(rng, n, 30)
	c := chunkOf(rows)
	cc := GetCodec()
	defer PutCodec(cc)
	block := append([]byte(nil), cc.EncodeBlock(c, nil)...)
	cc.noSections = true
	legacy := append([]byte(nil), cc.EncodeBlock(c, nil)...)
	cc.noSections = false

	cases := map[string][]byte{
		"empty":                 {},
		"short":                 block[:5],
		"truncated":             resealCRC(append([]byte(nil), block[:len(block)/2]...)),
		"flipped byte":          func() []byte { b := append([]byte(nil), block...); b[len(b)/2] ^= 0x40; return b }(),
		"bad flags":             resealCRC(func() []byte { b := append([]byte(nil), block...); b[4] = 9; return b }()),
		"trailing bytes":        resealCRC(append(append([]byte(nil), block...), 0, 1, 2)),
		"legacy trailing bytes": resealCRC(append(append([]byte(nil), legacy...), 0, 1, 2)),
		"column tag 2":          withColumnTag(block, 2),
		"column tag 2|lz4":      withColumnTag(block, 2|colLZ4),
		"column tag 4":          withColumnTag(block, 4),
		"column tag 4|lz4":      withColumnTag(block, 4|colLZ4),
	}
	for name, b := range cases {
		if err := DecodeBlockInto(b, n, &Chunk{}); err == nil {
			t.Errorf("%s: DecodeBlockInto accepted forged input", name)
		}
		if _, err := BlockZoneMap(b); err == nil {
			t.Errorf("%s: BlockZoneMap accepted forged input", name)
		}
		for _, st := range []*MemStore{NewMemStoreCompressed(n), NewMemStoreChunked(n)} {
			if err := st.RestoreChunk(b, make([]Class, n)); err == nil {
				t.Errorf("%s: RestoreChunk (compressed=%v) accepted forged input", name, st.Compressed())
			}
		}
		if !projectedReadPanics(rows, b) {
			t.Errorf("%s: projected column read did not panic", name)
		}
	}
	// Row-count mismatch against the store's expectation.
	if err := DecodeBlockInto(block, n+1, &Chunk{}); err == nil {
		t.Error("decode accepted a block with the wrong row count")
	}
	if err := NewMemStoreCompressed(n+1).RestoreChunk(block, make([]Class, n+1)); err == nil {
		t.Error("restore accepted a block with the wrong row count")
	}
	// The unforged blocks pass every reader.
	for _, b := range [][]byte{block, legacy} {
		if err := NewMemStoreCompressed(n).RestoreChunk(b, make([]Class, n)); err != nil {
			t.Errorf("restore of a valid block: %v", err)
		}
		if projectedReadPanics(rows, b) {
			t.Error("projected read of a valid block panicked")
		}
	}
}

// projectedReadPanics reports whether reading one projected column of
// a compressed store whose sealed block is swapped for block panics.
func projectedReadPanics(rows []Row, block []byte) (panicked bool) {
	st := NewMemStoreCompressed(len(rows))
	for _, r := range rows {
		st.Append(r)
	}
	st.blocks[0] = block
	pc := ProjChunkAt(st, 0, GetProj())
	defer PutProj(pc)
	defer func() { panicked = recover() != nil }()
	pc.Col(ColIP)
	return false
}

func TestLZ4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	htab := make([]int32, lzHashLen)
	inputs := [][]byte{
		bytes.Repeat([]byte("abcd"), 1000),
		bytes.Repeat([]byte("long templated cascade pattern / "), 64),
		make([]byte, 4096), // zeros
	}
	mixed := make([]byte, 8192)
	for i := range mixed {
		if i%512 < 200 {
			mixed[i] = byte(rng.Intn(256)) // incompressible stretch
		} else {
			mixed[i] = byte(i % 7)
		}
	}
	inputs = append(inputs, mixed)
	for i, src := range inputs {
		chain := make([]int32, len(src))
		enc := lzCompress(src, nil, htab, chain, 1)
		if enc == nil {
			t.Fatalf("input %d: compressible data reported incompressible", i)
		}
		if len(enc) >= len(src) {
			t.Fatalf("input %d: no compression (%d >= %d)", i, len(enc), len(src))
		}
		out := make([]byte, len(src))
		if err := lzDecompress(enc, out); err != nil {
			t.Fatalf("input %d: decompress: %v", i, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("input %d: round trip mismatch", i)
		}
		// Truncations and size lies must error, not panic.
		for cut := 1; cut < len(enc); cut += 7 {
			if err := lzDecompress(enc[:cut], out); err == nil && cut < len(enc) {
				t.Fatalf("input %d: truncation at %d decoded cleanly to full size", i, cut)
			}
		}
		if err := lzDecompress(enc, make([]byte, len(src)+1)); err == nil {
			t.Fatalf("input %d: oversized declared output accepted", i)
		}
	}
	// Stepped searches over fixed-width columns: repeated values, runs,
	// and values that share their low or high bytes, each in 4- and
	// 8-byte little-endian layout.
	for _, step := range []int{4, 8} {
		for shape := 0; shape < 4; shape++ {
			var src []byte
			for i := 0; i < 2048; i++ {
				var v uint64
				switch shape {
				case 0:
					v = uint64(rng.Intn(9)) // low cardinality
				case 1:
					v = uint64(i / 37) // runs
				case 2:
					v = uint64(rng.Intn(5))<<40 | 0xABCD // equal low bytes
				default:
					v = 0x1234_5678_9ABC_0000 | uint64(rng.Intn(300)) // shared high bytes
				}
				if step == 4 {
					src = binary.LittleEndian.AppendUint32(src, uint32(v|v>>32))
				} else {
					src = binary.LittleEndian.AppendUint64(src, v)
				}
			}
			enc := lzCompress(src, nil, htab, make([]int32, len(src)), step)
			if enc == nil || len(enc) >= len(src) {
				t.Fatalf("step %d shape %d: no compression", step, shape)
			}
			out := make([]byte, len(src))
			if err := lzDecompress(enc, out); err != nil || !bytes.Equal(out, src) {
				t.Fatalf("step %d shape %d: round trip failed (%v)", step, shape, err)
			}
		}
	}

	// Random noise must be reported incompressible, and random "streams"
	// must never panic the decoder.
	noise := make([]byte, 4096)
	rng.Read(noise)
	if enc := lzCompress(noise, nil, htab, make([]int32, len(noise)), 1); enc != nil {
		t.Log("noise compressed (harmless, just unexpected)")
	}
	out := make([]byte, 512)
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(64)
		b := make([]byte, n)
		rng.Read(b)
		lzDecompress(b, out[:rng.Intn(len(out))])
	}
}
