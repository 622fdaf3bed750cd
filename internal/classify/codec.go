package classify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"sync"

	"crossborder/internal/netsim"
)

// This file implements the per-chunk column codec behind compressed
// MemStores, whose sealed blocks stay resident or spill to disk.
// One encoded block holds the nine spilled columns of one chunk
// (Class stays resident — the semi-stage fixpoint mutates it after
// sealing), each column independently encoded with whichever scheme
// is smallest for its actual contents:
//
//   - raw        fixed-width little-endian (the PR 3 layout)
//   - rle        (run length, value) pairs — the Publisher/User/Day/
//                Country columns are long runs because the merge emits
//                rows in user then visit order
//   - dict       sorted distinct values (delta-uvarint) + bit-packed
//                indices — the interned-id and IP columns have a few
//                hundred distinct values per 16Ki-row chunk
//
// and any scheme's payload may additionally be wrapped in the LZ4-style
// block compressor from lz4.go when that shrinks it further (templated
// RTB cascades repeat multi-byte patterns that per-value schemes miss).
// Every scheme decodes straight into a form the projection scan path
// runs on (wide values, runs, or dictionary + index stream). Tags 2
// and 4 belonged to retired schemes (zigzag delta, entropy-coded
// dictionary) and are unknown tags.
//
// Encoding a column costs one pass over its values plus a sort of its
// distinct values. The pass (buildDict) computes the zone map's min,
// max and distinct count and the exact RLE size, and builds the
// dictionary: an open-addressing table, keyed by a random per-codec
// seed so uploaded values cannot force long probe chains, maps each
// value to a first-seen slot and records every row's slot. Only the
// distinct values are sorted, and a rank array maps slot to sorted
// index for the bit-packed stream, so the block is the same whatever
// the seed. LZ is tried on the winning payload and, while the winner is
// above half of raw, on the raw bytes, with matches searched one value
// width at a time. It is not tried on a dictionary holding more than
// half the rows unless one row or delta in 16 repeats: a near-unique
// dictionary of URL hashes is random bytes to LZ.
//
// Block frame (what a compressed MemStore seals each chunk into):
//
//	[4B crc32c over the rest] [1B format flags] [uvarint row count]
//	9 × ( [1B tag] [uvarint payload length] [payload] )
//	optional sections (format flag 0x01):
//	N × ( [1B section tag] [uvarint payload length] [payload] )
//
// Sections are version-tolerant: a reader skips section tags it does
// not know (tag 0 is reserved invalid, so trailing garbage cannot
// masquerade as a section), so frames can grow new metadata without
// breaking old readers, and flags==0 blocks from before sections
// existed decode exactly as they always did. The only section today is the zone map
// (per-column min/max + distinct count + seal-time class bitmap) the
// projection scan path uses to skip chunks without decoding them.
//
// One parser, parseFrame, reads this layout for every consumer (the
// projection path, zone-map extraction, checkpoint restore and the
// full-width decode of shard exports), and one column decoder, decodeColumnView, decodes payloads
// for all of them. Both are hardened: the checksum is verified first,
// unknown column tags are rejected, every declared length is validated
// against caps derived from the caller-supplied row count before any
// allocation, and dictionary indices are range-checked. Forged input
// errors out; it cannot panic or over-allocate (FuzzDecodeChunk).

// Column encoding schemes (low 7 bits of the column tag).
const (
	colRaw  = 0
	colRLE  = 1
	colDict = 3

	// colLZ4 marks the payload as LZ4-wrapped: [uvarint inner length]
	// [lz4 stream], with the inner stream encoded per the scheme bits.
	colLZ4 = 0x80
)

// numSchemes bounds the base column tags (colRaw..colDict), the index
// space of EncBreakdown.
const numSchemes = 4

// knownScheme reports whether base tag t names a live scheme; parseFrame
// rejects every other tag.
func knownScheme(t byte) bool { return t == colRaw || t == colRLE || t == colDict }

// Format-flag bits of the frame's fifth byte.
const (
	// frameHasSections marks that tagged sections follow the nine
	// columns. Readers skip sections whose tag they do not know.
	frameHasSections = 0x01
)

// Section tags.
const (
	secZoneMap = 1
)

// numCols is the number of spilled columns; colWidths their natural
// byte widths, in encode order (URLHash, IP, FQDN, RefFQDN, Publisher,
// User, Day, Country, Flags).
const numCols = 9

var colWidths = [numCols]int{8, 4, 4, 4, 4, 4, 2, 1, 1}

// maxFuzzRows caps the declared row count when the caller does not
// know it (parseFrame with wantRows < 0: the fuzzer and BlockZoneMap);
// stores always pass their exact per-chunk row count.
const maxFuzzRows = 1 << 16

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errCorrupt = errors.New("classify: corrupt chunk block")

// ZoneMap is the per-chunk pruning metadata computed while a chunk is
// encoded and persisted as a frame section: per-column min/max and
// distinct count, plus the bitmap of Class values present at seal time.
// Min/max over the immutable spilled columns are always authoritative;
// ClassBits is only a seal-time observation — the semi-stage fixpoint
// mutates the resident class column after sealing (Clean rows can
// become Semi*), so skip decisions about classes must consult the
// resident Store.Classes slice, not this bitmap.
type ZoneMap struct {
	Min       [numCols]uint64
	Max       [numCols]uint64
	Distinct  [numCols]uint32 // 0 = not computed (empty chunk)
	ClassBits uint8
}

// appendZoneSection emits the zone map as a tagged frame section.
func appendZoneSection(dst []byte, zm *ZoneMap) []byte {
	dst = append(dst, secZoneMap)
	// Payload staged separately so the section length prefix is exact.
	var pay [16 + numCols*(10+10+5)]byte
	p := pay[:0]
	for col := 0; col < numCols; col++ {
		p = binary.AppendUvarint(p, zm.Min[col])
		p = binary.AppendUvarint(p, zm.Max[col]-zm.Min[col])
		p = binary.AppendUvarint(p, uint64(zm.Distinct[col]))
	}
	p = append(p, zm.ClassBits)
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// parseZoneSection decodes a zone-map section payload. Malformed
// payloads (truncated streams, max < min overflow, out-of-width values)
// return an error so a forged section cannot plant a zone map that
// would prune live chunks.
func parseZoneSection(payload []byte, rows int, zm *ZoneMap) error {
	for col := 0; col < numCols; col++ {
		var maxVal uint64 = 1<<(8*uint(colWidths[col])) - 1
		if colWidths[col] == 8 {
			maxVal = ^uint64(0)
		}
		mn, k := binary.Uvarint(payload)
		if k <= 0 {
			return fmt.Errorf("%w: truncated zone map", errCorrupt)
		}
		payload = payload[k:]
		span, k := binary.Uvarint(payload)
		if k <= 0 {
			return fmt.Errorf("%w: truncated zone map", errCorrupt)
		}
		payload = payload[k:]
		mx := mn + span
		if mx < mn || mn > maxVal || mx > maxVal {
			return fmt.Errorf("%w: zone range overflows column %d", errCorrupt, col)
		}
		d64, k := binary.Uvarint(payload)
		if k <= 0 || d64 > uint64(rows) {
			return fmt.Errorf("%w: bad zone distinct count", errCorrupt)
		}
		payload = payload[k:]
		zm.Min[col], zm.Max[col], zm.Distinct[col] = mn, mx, uint32(d64)
	}
	if len(payload) != 1 {
		return fmt.Errorf("%w: bad zone-map payload size", errCorrupt)
	}
	zm.ClassBits = payload[0]
	return nil
}

// BlockZoneMap extracts the zone-map section from a framed block
// without decoding any column payload. It returns nil for legacy
// flags==0 blocks (checkpoints written before zone maps existed) and an
// error only for corrupt frames.
func BlockZoneMap(block []byte) (*ZoneMap, error) {
	var f frame
	if err := parseFrame(block, -1, &f); err != nil {
		return nil, err
	}
	return f.zoneMap(), nil
}

// frame is one parsed block frame: the row count, each column's tag,
// still-encoded payload (aliasing the block) and framed size (tag byte
// + length prefix + payload), and the zone-map section if present.
type frame struct {
	rows      int
	tags      [numCols]byte
	pays      [numCols][]byte
	sizes     [numCols]int
	zone      ZoneMap
	hasZone   bool
	zoneBytes int // framed size of the zone-map section
}

// zoneMap returns a copy of the frame's zone map, nil if it has none.
func (f *frame) zoneMap() *ZoneMap {
	if !f.hasZone {
		return nil
	}
	zm := f.zone
	return &zm
}

// parseFrame is the one reader of the block frame layout. It verifies
// the checksum and format flags, checks the declared row count (exactly
// wantRows when wantRows >= 0, else 1..maxFuzzRows), walks the nine
// column headers rejecting unknown tags, walks the sections parsing the
// zone map, and rejects trailing bytes. Payloads are left encoded.
func parseFrame(block []byte, wantRows int, f *frame) error {
	if len(block) < 6 {
		return fmt.Errorf("%w: %d-byte block", errCorrupt, len(block))
	}
	if got, want := crc32.Checksum(block[4:], castagnoli), binary.LittleEndian.Uint32(block); got != want {
		return fmt.Errorf("%w: checksum mismatch (%08x != %08x)", errCorrupt, got, want)
	}
	flags := block[4]
	if flags&^byte(frameHasSections) != 0 {
		return fmt.Errorf("%w: unknown format flags 0x%02x", errCorrupt, flags)
	}
	rest := block[5:]
	rows64, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("%w: bad row count", errCorrupt)
	}
	rest = rest[k:]
	if wantRows >= 0 {
		if rows64 != uint64(wantRows) {
			return fmt.Errorf("%w: block declares %d rows, store expects %d", errCorrupt, rows64, wantRows)
		}
	} else if rows64 == 0 || rows64 > maxFuzzRows {
		return fmt.Errorf("%w: implausible row count %d", errCorrupt, rows64)
	}
	f.rows = int(rows64)
	for col := 0; col < numCols; col++ {
		if len(rest) < 1 {
			return fmt.Errorf("%w: truncated at column %d", errCorrupt, col)
		}
		tag := rest[0]
		if !knownScheme(tag &^ colLZ4) {
			return fmt.Errorf("%w: unknown column tag 0x%02x in column %d", errCorrupt, tag, col)
		}
		plen64, k := binary.Uvarint(rest[1:])
		if k <= 0 || plen64 > uint64(len(rest)-1-k) {
			return fmt.Errorf("%w: bad payload length for column %d", errCorrupt, col)
		}
		f.tags[col], f.pays[col], f.sizes[col] = tag, rest[1+k:1+k+int(plen64)], 1+k+int(plen64)
		rest = rest[f.sizes[col]:]
	}
	f.hasZone, f.zoneBytes = false, 0
	for flags&frameHasSections != 0 && len(rest) > 0 {
		tag := rest[0]
		if tag == 0 {
			return fmt.Errorf("%w: reserved section tag", errCorrupt)
		}
		plen64, k := binary.Uvarint(rest[1:])
		if k <= 0 || plen64 > uint64(len(rest)-1-k) {
			return fmt.Errorf("%w: bad section length", errCorrupt)
		}
		payload := rest[1+k : 1+k+int(plen64)]
		rest = rest[1+k+int(plen64):]
		if tag != secZoneMap {
			continue // unknown section: skip (forward compatibility)
		}
		if err := parseZoneSection(payload, f.rows, &f.zone); err != nil {
			return err
		}
		f.hasZone, f.zoneBytes = true, 1+k+int(plen64)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(rest))
	}
	return nil
}

// ChunkCodec holds the reusable scratch of the chunk codec: staging
// buffers, the dictionary, the LZ4 hash chain, and the one-column
// decode view the wide decode widens from. It is not safe for
// concurrent use; each worker borrows one (they are sync.Pool-backed
// via GetCodec/PutCodec), and each ProjChunk owns one for its column
// decodes.
type ChunkCodec struct {
	vals   []uint64 // staged column values
	dict   []uint64 // distinct values in first-seen (slot) order
	sorted []uint64 // distinct values sorted: the emitted dictionary
	slots  []uint32 // per-row dictionary slot
	rank   []uint32 // slot -> index in sorted
	table  []int32  // open-addressing value -> slot+1 table, 0 = empty
	seed   uint64   // hash key of table, drawn at first encode
	winner []byte   // winning candidate payload staging
	cand   []byte   // candidate payload staging
	rawCol []byte   // raw column bytes (LZ4 input)
	lz     []byte   // LZ4 output staging
	inner  []byte   // LZ4-unwrapped payload (decode)
	htab   []int32  // LZ4 hash heads
	chain  []int32  // LZ4 hash chains
	view   ColView  // DecodeBlock's per-column decode scratch

	// Statistics of the most recent EncodeBlock call: the zone map and
	// the winning tag + framed size per column plus the zone-map
	// section size. MemStore.sealOpen folds them into the store's
	// Footprint breakdown and retains the zone map resident for the
	// projection scan path.
	encZone      ZoneMap
	encTags      [numCols]byte
	encSizes     [numCols]int
	encZoneBytes int

	// noSections forces the legacy flags==0 frame without the zone-map
	// section; tests use it to prove old blocks still decode.
	noSections bool
}

var codecPool = sync.Pool{New: func() any { return new(ChunkCodec) }}

// GetCodec borrows a codec from the pool.
func GetCodec() *ChunkCodec { return codecPool.Get().(*ChunkCodec) }

// PutCodec returns a codec to the pool.
func PutCodec(cc *ChunkCodec) { codecPool.Put(cc) }

// DecodeBlockInto decodes a framed codec block into buf's nine wide
// columns through a pooled codec. It is the full-width decode for
// blocks that come from outside the process (the fan-in decodes shard
// exports); reads of a store go through ProjChunk instead.
func DecodeBlockInto(block []byte, rows int, buf *Chunk) error {
	cc := GetCodec()
	defer PutCodec(cc)
	return cc.DecodeBlock(block, rows, buf)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// scatter writes decoded values back into column col of buf, whose
// columns reset already sized to n.
func scatter(buf *Chunk, col int, vals []uint64) {
	switch col {
	case 0:
		copy(buf.URLHash, vals)
	case 1:
		for i, v := range vals {
			buf.IP[i] = netsim.IP(uint32(v))
		}
	case 2:
		for i, v := range vals {
			buf.FQDN[i] = uint32(v)
		}
	case 3:
		for i, v := range vals {
			buf.RefFQDN[i] = uint32(v)
		}
	case 4:
		for i, v := range vals {
			buf.Publisher[i] = int32(uint32(v))
		}
	case 5:
		for i, v := range vals {
			buf.User[i] = int32(uint32(v))
		}
	case 6:
		for i, v := range vals {
			buf.Day[i] = uint16(v)
		}
	case 7:
		for i, v := range vals {
			buf.Country[i] = uint8(v)
		}
	case 8:
		for i, v := range vals {
			buf.Flags[i] = uint8(v)
		}
	}
}

// appendRawVals emits the staged values fixed-width little-endian.
func appendRawVals(dst []byte, vals []uint64, width int) []byte {
	switch width {
	case 8:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case 4:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case 2:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		}
	default:
		for _, v := range vals {
			dst = append(dst, byte(v))
		}
	}
	return dst
}

// EncodeBlock appends the framed, encoded form of the chunk's nine
// spilled columns to dst and returns the extended slice. Each column
// gets the smallest applicable encoding, raw included.
func (cc *ChunkCodec) EncodeBlock(c *Chunk, dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	flags := byte(frameHasSections)
	if cc.noSections {
		flags = 0
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(c.Len()))
	cc.encZone = ZoneMap{}
	if cc.seed == 0 {
		cc.seed = rand.Uint64()
	}
	for col := 0; col < numCols; col++ {
		cc.vals = c.gather(ColID(col), cc.vals)
		before := len(dst)
		dst = cc.encodeColumn(dst, col)
		cc.encTags[col] = dst[before]
		cc.encSizes[col] = len(dst) - before
	}
	for _, cl := range c.Class {
		cc.encZone.ClassBits |= 1 << cl
	}
	cc.encZoneBytes = 0
	if flags&frameHasSections != 0 {
		before := len(dst)
		dst = appendZoneSection(dst, &cc.encZone)
		cc.encZoneBytes = len(dst) - before
	}
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], castagnoli))
	return dst
}

// hash maps a column value to its dictionary-table probe start. The
// codec's random seed keys it, so uploaded values cannot be chosen to
// collide; the encoded block never depends on the seed.
func (cc *ChunkCodec) hash(v uint64) uint64 {
	v ^= cc.seed
	v = (v ^ v>>30) * 0xbf58476d1ce4e5b9
	v = (v ^ v>>27) * 0x94d049bb133111eb
	return v ^ v>>31
}

// probe returns the index of v's entry in the dictionary table, or of
// the empty entry that ends its linear probe when v is absent.
func (cc *ChunkCodec) probe(v uint64) uint64 {
	mask := uint64(len(cc.table) - 1)
	h := cc.hash(v) & mask
	for e := cc.table[h]; e != 0 && cc.dict[e-1] != v; e = cc.table[h] {
		h = (h + 1) & mask
	}
	return h
}

// buildDict makes one pass over the staged column: it fills the zone
// map's min, max and distinct count, records each row's first-seen
// dictionary slot in cc.slots (distinct values go to cc.dict in slot
// order through the open-addressing cc.table), and returns the exact
// RLE payload size and the number of runs. A row equal to its
// predecessor reuses its slot without probing.
func (cc *ChunkCodec) buildDict(col int) (rleSize, runs int) {
	vals := cc.vals
	n := len(vals)
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(cc.table) < size {
		cc.table = make([]int32, size)
	}
	cc.table = cc.table[:size]
	clear(cc.table)
	if cap(cc.slots) < n {
		cc.slots = make([]uint32, n)
	}
	slots := cc.slots[:n]
	cc.dict = cc.dict[:0]
	mn, mx := vals[0], vals[0]
	var s uint32
	run := 0
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			slots[i] = s
			run++
			continue
		}
		if i > 0 {
			rleSize += uvarintLen(uint64(run)) + uvarintLen(vals[i-1])
		}
		run = 1
		runs++
		mn, mx = min(mn, v), max(mx, v)
		h := cc.probe(v)
		if cc.table[h] == 0 {
			cc.dict = append(cc.dict, v)
			cc.table[h] = int32(len(cc.dict))
		}
		s = uint32(cc.table[h] - 1)
		slots[i] = s
	}
	rleSize += uvarintLen(uint64(run)) + uvarintLen(vals[n-1])
	zm := &cc.encZone
	zm.Min[col], zm.Max[col], zm.Distinct[col] = mn, mx, uint32(len(cc.dict))
	return rleSize, runs
}

// encodeColumn appends [tag][uvarint len][payload] for the staged
// column, choosing the smallest candidate encoding.
func (cc *ChunkCodec) encodeColumn(dst []byte, col int) []byte {
	width := colWidths[col]
	vals := cc.vals
	n := len(vals)
	rawSize := n * width
	if n == 0 {
		dst = append(dst, colRaw)
		dst = binary.AppendUvarint(dst, uint64(rawSize))
		return appendRawVals(dst, vals, width)
	}

	tag, best := byte(colRaw), rawSize
	rleSize, runs := cc.buildDict(col)
	if rleSize < best {
		tag, best = colRLE, rleSize
	}

	// Dictionary: sorted distinct values, stored as uvarint deltas.
	// repeats counts rows equal to their predecessor and deltas equal
	// to the one before: the sources of LZ matches in a dictionary
	// payload.
	d := len(cc.dict)
	cc.sorted = append(cc.sorted[:0], cc.dict...)
	slices.Sort(cc.sorted)
	packBits := bitsFor(d)
	packSize := uvarintLen(uint64(d)) + uvarintLen(cc.sorted[0]) + (n*packBits+7)/8
	repeats := n - runs
	var prev uint64
	for i := 1; i < d; i++ {
		delta := cc.sorted[i] - cc.sorted[i-1]
		packSize += uvarintLen(delta)
		if i > 1 && delta == prev {
			repeats++
		}
		prev = delta
	}
	if packSize < best {
		tag = colDict
	}

	// Materialize the winner.
	cc.winner = cc.winner[:0]
	switch tag {
	case colRaw:
		cc.winner = appendRawVals(cc.winner, vals, width)
	case colRLE:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			cc.winner = binary.AppendUvarint(cc.winner, uint64(j-i))
			cc.winner = binary.AppendUvarint(cc.winner, vals[i])
			i = j
		}
	case colDict:
		cc.winner = cc.appendDict(cc.winner)
		// rank remaps each first-seen slot to its sorted index.
		if cap(cc.rank) < d {
			cc.rank = make([]uint32, d)
		}
		rank := cc.rank[:d]
		for k, v := range cc.sorted {
			rank[cc.table[cc.probe(v)]-1] = uint32(k)
		}
		var acc uint64
		var nb uint
		for _, s := range cc.slots[:n] {
			acc |= uint64(rank[s]) << nb
			nb += uint(packBits)
			for nb >= 8 {
				cc.winner = append(cc.winner, byte(acc))
				acc >>= 8
				nb -= 8
			}
		}
		if nb > 0 {
			cc.winner = append(cc.winner, byte(acc))
		}
	}

	// LZ4 pass: try wrapping the winner, and independently the raw
	// bytes — a column whose dictionary barely beats raw can still hold
	// byte-level repeats LZ4 finds. Raw bytes are searched one value
	// width at a time. A dictionary holding more than half the rows is
	// tried only when at least one row or delta in 16 repeats: without
	// repeats its payload is near-random (URL hashes), and the pass
	// would save well under 1%. The raw attempt is skipped once the
	// per-value winner already compresses below half of raw: LZ4's
	// token stream cannot reach that density on fixed-width input, so
	// the pass would be pure encode cost.
	if cap(cc.htab) < lzHashLen {
		cc.htab = make([]int32, lzHashLen)
	}
	bestTag, bestPayload := tag, cc.winner
	if tag != colDict || 2*d <= n || 16*repeats >= n {
		step := 1
		if tag == colRaw {
			step = width
		}
		if len(cc.chain) < len(cc.winner) {
			cc.chain = make([]int32, len(cc.winner)+rawSize)
		}
		cc.lz = binary.AppendUvarint(cc.lz[:0], uint64(len(cc.winner)))
		if lz := lzCompress(cc.winner, cc.lz, cc.htab, cc.chain, step); lz != nil && len(lz) < len(bestPayload) {
			cc.lz = lz
			bestTag, bestPayload = tag|colLZ4, lz
		}
	}
	if tag != colRaw && 2*len(bestPayload) > rawSize {
		cc.rawCol = appendRawVals(cc.rawCol[:0], vals, width)
		if len(cc.chain) < rawSize {
			cc.chain = make([]int32, rawSize)
		}
		cc.cand = binary.AppendUvarint(cc.cand[:0], uint64(rawSize))
		if lz := lzCompress(cc.rawCol, cc.cand, cc.htab, cc.chain, width); lz != nil && len(lz) < len(bestPayload) {
			cc.cand = lz
			bestTag, bestPayload = colRaw|colLZ4, lz
		}
	}

	dst = append(dst, bestTag)
	dst = binary.AppendUvarint(dst, uint64(len(bestPayload)))
	return append(dst, bestPayload...)
}

// appendDict emits [uvarint ndict][sorted values as uvarint deltas].
func (cc *ChunkCodec) appendDict(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cc.sorted)))
	dst = binary.AppendUvarint(dst, cc.sorted[0])
	for i := 1; i < len(cc.sorted); i++ {
		dst = binary.AppendUvarint(dst, cc.sorted[i]-cc.sorted[i-1])
	}
	return dst
}

// bitsFor returns the index width for an n-entry dictionary (0 for a
// constant column).
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// DecodeBlock decodes a framed block into buf's nine wide columns
// (Class is left untouched: a sealed chunk's classes live beside its
// block, and the caller attaches them). wantRows >= 0 requires the block to declare exactly that row
// count; wantRows < 0 accepts up to maxFuzzRows. All declared lengths
// are validated against row-count-derived caps before anything is
// allocated, so corrupt or forged blocks return an error instead of
// panicking or ballooning memory.
func (cc *ChunkCodec) DecodeBlock(block []byte, wantRows int, buf *Chunk) error {
	var f frame
	if err := parseFrame(block, wantRows, &f); err != nil {
		return err
	}
	return cc.decodeFrame(&f, buf)
}

// decodeFrame decodes a parsed frame's columns one at a time into the
// codec's view scratch, widening each into buf. A nil buf only
// validates every column payload.
func (cc *ChunkCodec) decodeFrame(f *frame, buf *Chunk) error {
	if buf != nil {
		buf.reset(f.rows)
	}
	for col := 0; col < numCols; col++ {
		if err := cc.decodeColumnView(f, col, &cc.view); err != nil {
			return fmt.Errorf("column %d: %w", col, err)
		}
		if buf != nil {
			scatter(buf, col, cc.view.widen(f.rows))
		}
	}
	return nil
}

// readDict parses [uvarint ndict][delta-uvarint sorted values] into
// v.Dict, validating the count against the row count and every value
// against the column width before allocating.
func readDict(payload []byte, n int, maxVal uint64, v *ColView) ([]byte, error) {
	d64, k := binary.Uvarint(payload)
	if k <= 0 || d64 == 0 || d64 > uint64(n) || d64 > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: bad dictionary size", errCorrupt)
	}
	payload = payload[k:]
	d := int(d64)
	if cap(v.Dict) < d {
		v.Dict = make([]uint64, d)
	}
	v.Dict = v.Dict[:d]
	var prev uint64
	for i := 0; i < d; i++ {
		x, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, fmt.Errorf("%w: truncated dictionary", errCorrupt)
		}
		payload = payload[k:]
		if i > 0 {
			nx := prev + x
			if nx < prev {
				return nil, fmt.Errorf("%w: dictionary overflow", errCorrupt)
			}
			x = nx
		}
		if x > maxVal {
			return nil, fmt.Errorf("%w: dictionary value overflows column width", errCorrupt)
		}
		v.Dict[i] = x
		prev = x
	}
	return payload, nil
}

// decodeColumnView is the one column decoder: it decodes column col of
// a parsed frame into v in its cheapest faithful form — RLE stays
// (value, run) pairs, dict stays the sorted dictionary plus per-row
// index stream, raw decodes to wide values. The outputs are
// backed by v's own arrays so several columns can be live at once;
// (*ColView).widen turns any form into plain per-row values.
func (cc *ChunkCodec) decodeColumnView(f *frame, col int, v *ColView) error {
	payload, tag, n, width := f.pays[col], f.tags[col], f.rows, colWidths[col]
	if tag&colLZ4 != 0 {
		innerLen, k := binary.Uvarint(payload)
		if k <= 0 || innerLen > uint64(n*width+64) {
			return fmt.Errorf("%w: bad lz4 inner length", errCorrupt)
		}
		if cap(cc.inner) < int(innerLen) {
			cc.inner = make([]byte, innerLen)
		}
		cc.inner = cc.inner[:innerLen]
		if err := lzDecompress(payload[k:], cc.inner); err != nil {
			return err
		}
		payload = cc.inner
		tag &^= colLZ4
	}
	var maxVal uint64 = 1<<(8*uint(width)) - 1
	if width == 8 {
		maxVal = ^uint64(0)
	}
	switch tag {
	case colRaw:
		if len(payload) != n*width {
			return fmt.Errorf("%w: raw column is %d bytes, want %d", errCorrupt, len(payload), n*width)
		}
		vals := v.wideBuf(n)
		switch width {
		case 8:
			for i := range vals {
				vals[i] = binary.LittleEndian.Uint64(payload[i*8:])
			}
		case 4:
			for i := range vals {
				vals[i] = uint64(binary.LittleEndian.Uint32(payload[i*4:]))
			}
		case 2:
			for i := range vals {
				vals[i] = uint64(binary.LittleEndian.Uint16(payload[i*2:]))
			}
		default:
			for i := range vals {
				vals[i] = uint64(payload[i])
			}
		}
		v.Form = ViewWide
	case colRLE:
		v.Runs = v.Runs[:0]
		i := 0
		for i < n {
			run, k := binary.Uvarint(payload)
			if k <= 0 || run == 0 || run > uint64(n-i) {
				return fmt.Errorf("%w: bad rle run", errCorrupt)
			}
			payload = payload[k:]
			val, k := binary.Uvarint(payload)
			if k <= 0 || val > maxVal {
				return fmt.Errorf("%w: bad rle value", errCorrupt)
			}
			payload = payload[k:]
			v.Runs = append(v.Runs, Run{Value: val, Len: int(run)})
			i += int(run)
		}
		if len(payload) != 0 {
			return fmt.Errorf("%w: trailing rle bytes", errCorrupt)
		}
		v.Form = ViewRuns
	case colDict:
		var err error
		if payload, err = readDict(payload, n, maxVal, v); err != nil {
			return err
		}
		d := len(v.Dict)
		bits := bitsFor(d)
		if need := (n*bits + 7) / 8; len(payload) != need {
			return fmt.Errorf("%w: packed indices are %d bytes, want %d", errCorrupt, len(payload), need)
		}
		if cap(v.Idx) < n {
			v.Idx = make([]uint32, n)
		}
		v.Idx = v.Idx[:n]
		var acc uint64
		var nb uint
		pi := 0
		mask := uint64(1)<<bits - 1
		for i := range v.Idx {
			for nb < uint(bits) {
				acc |= uint64(payload[pi]) << nb
				pi++
				nb += 8
			}
			k := acc & mask
			acc >>= uint(bits)
			nb -= uint(bits)
			if k >= uint64(d) {
				return fmt.Errorf("%w: dictionary index out of range", errCorrupt)
			}
			v.Idx[i] = uint32(k)
		}
		v.Form = ViewDict
	default:
		return fmt.Errorf("%w: unknown column tag 0x%02x", errCorrupt, tag)
	}
	return nil
}
