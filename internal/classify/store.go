package classify

import (
	"fmt"
	"sync"

	"crossborder/internal/netsim"
)

// DefaultChunkRows is the row capacity of one columnar chunk. At ~33
// bytes of column data per row a chunk is ~half a megabyte: large
// enough that per-chunk overhead (one disk read, one decode, one
// goroutine hand-off) vanishes against the scan, small enough that a
// spilled dataset needs only a few chunks resident at a time.
const DefaultChunkRows = 1 << 14

// RowWidthBytes is the wide (struct-of-arrays) column width of one row:
// 8 (URLHash) + 4 (IP) + 4 (FQDN) + 4 (RefFQDN) + 4 (Publisher) +
// 4 (User) + 2 (Day) + 1 (Country) + 1 (Flags) + 1 (Class). Footprint
// accounting uses it as the raw-equivalent size of a row, the yardstick
// compressed blocks are measured against.
const RowWidthBytes = 33

// Chunk is one fixed-capacity columnar (struct-of-arrays) block of
// rows. All column slices share the same length. The Class column is
// special: it always aliases the store's resident class storage, so
// writes to it through any loaded Chunk are writes to the store (the
// semi-stage fixpoint relies on this to reclassify rows without
// rewriting spilled chunks).
type Chunk struct {
	URLHash   []uint64
	IP        []netsim.IP
	FQDN      []uint32
	RefFQDN   []uint32
	Publisher []int32
	User      []int32
	Day       []uint16
	Country   []uint8
	Flags     []uint8
	Class     []Class

	// raw is the spill store's block-read scratch, reused across loads
	// into this buffer so a chunk-wise scan reads the whole file with a
	// handful of persistent allocations.
	raw []byte
	// cc is the lazily attached codec scratch; a buffer reused across
	// chunk loads reuses one codec's dictionaries and tables.
	cc *ChunkCodec
}

// Len returns the number of rows in the chunk.
func (c *Chunk) Len() int { return len(c.Class) }

// Row gathers row i of the chunk back into array-of-structs form.
func (c *Chunk) Row(i int) Row {
	return Row{
		URLHash:   c.URLHash[i],
		IP:        c.IP[i],
		FQDN:      c.FQDN[i],
		RefFQDN:   c.RefFQDN[i],
		Publisher: c.Publisher[i],
		User:      c.User[i],
		Day:       c.Day[i],
		Country:   c.Country[i],
		Flags:     c.Flags[i],
		Class:     c.Class[i],
	}
}

// appendRow scatters one row into the chunk's columns.
func (c *Chunk) appendRow(r Row) {
	c.URLHash = append(c.URLHash, r.URLHash)
	c.IP = append(c.IP, r.IP)
	c.FQDN = append(c.FQDN, r.FQDN)
	c.RefFQDN = append(c.RefFQDN, r.RefFQDN)
	c.Publisher = append(c.Publisher, r.Publisher)
	c.User = append(c.User, r.User)
	c.Day = append(c.Day, r.Day)
	c.Country = append(c.Country, r.Country)
	c.Flags = append(c.Flags, r.Flags)
	c.Class = append(c.Class, r.Class)
}

// grow preallocates every column to capacity n.
func (c *Chunk) grow(n int) {
	c.URLHash = make([]uint64, 0, n)
	c.IP = make([]netsim.IP, 0, n)
	c.FQDN = make([]uint32, 0, n)
	c.RefFQDN = make([]uint32, 0, n)
	c.Publisher = make([]int32, 0, n)
	c.User = make([]int32, 0, n)
	c.Day = make([]uint16, 0, n)
	c.Country = make([]uint8, 0, n)
	c.Flags = make([]uint8, 0, n)
	c.Class = make([]Class, 0, n)
}

// reset truncates every column to length n (capacity preserved),
// leaving the Class alias to be set by the loader.
func (c *Chunk) reset(n int) {
	if cap(c.URLHash) < n {
		c.URLHash = make([]uint64, n)
		c.IP = make([]netsim.IP, n)
		c.FQDN = make([]uint32, n)
		c.RefFQDN = make([]uint32, n)
		c.Publisher = make([]int32, n)
		c.User = make([]int32, n)
		c.Day = make([]uint16, n)
		c.Country = make([]uint8, n)
		c.Flags = make([]uint8, n)
		return
	}
	c.URLHash = c.URLHash[:n]
	c.IP = c.IP[:n]
	c.FQDN = c.FQDN[:n]
	c.RefFQDN = c.RefFQDN[:n]
	c.Publisher = c.Publisher[:n]
	c.User = c.User[:n]
	c.Day = c.Day[:n]
	c.Country = c.Country[:n]
	c.Flags = c.Flags[:n]
}

// chunkPool recycles decode buffers across scans so chunk-wise readers
// of compressed or spilled stores stay allocation-flat: Dataset.Scan,
// EachRow, core.Analyze workers and the semi-stage fixpoint all draw
// their scratch from here.
var chunkPool = sync.Pool{New: func() any { return new(Chunk) }}

// GetChunk borrows a reusable chunk decode buffer from the pool.
func GetChunk() *Chunk { return chunkPool.Get().(*Chunk) }

// PutChunk returns a decode buffer to the pool. The Class alias is
// dropped so pooled buffers never pin a store's resident class column.
func PutChunk(c *Chunk) {
	c.Class = nil
	chunkPool.Put(c)
}

// Store is the read side of a sealed row store: a sequence of columnar
// chunks. Implementations must support concurrent Chunk calls with
// distinct bufs (the parallel scans in core.Analyze and the sharded
// semi-stage fixpoint rely on this). The Class column returned by both
// Chunk and Classes is resident and shared: a write through one view is
// seen by every other.
type Store interface {
	// Len returns the total number of rows.
	Len() int
	// NumChunks returns the number of chunks. Every chunk except the
	// last holds exactly ChunkRows rows.
	NumChunks() int
	// ChunkRows returns the fixed per-chunk row capacity.
	ChunkRows() int
	// Chunk returns chunk i. buf, when non-nil, may be reused as the
	// decode target; stores holding resident chunks ignore it and
	// return the resident chunk directly. The returned chunk is valid
	// until buf is reused. Decode and read failures (a lost spill
	// file, a corrupt block) are reported as errors, never panics.
	Chunk(i int, buf *Chunk) (*Chunk, error)
	// Classes returns the resident, mutable class column of chunk i
	// without loading the spilled columns.
	Classes(i int) []Class
	// ScanCols walks the store chunk by chunk through the projection
	// path: fn receives a ProjChunk whose zone map and resident class
	// column are available immediately and whose spilled columns load
	// lazily, in encoded form where profitable. cols declares the
	// projection the kernel intends to touch.
	ScanCols(cols ColSet, fn func(base int, pc *ProjChunk))
	// Footprint reports the store's memory and encoding accounting.
	Footprint() Footprint
	// Close releases any resources backing the store (spill files).
	// The store must not be used afterwards.
	Close() error
}

// MustChunk loads chunk i or panics. The scan pipelines use it: they
// only read stores this process wrote moments earlier, so a decode
// failure means the environment lost the backing data under us and no
// caller can do better than fail loudly. Paths that face untrusted or
// long-lived storage call Store.Chunk directly and handle the error.
func MustChunk(st Store, i int, buf *Chunk) *Chunk {
	c, err := st.Chunk(i, buf)
	if err != nil {
		panic(fmt.Sprintf("classify: load chunk %d: %v", i, err))
	}
	return c
}

// RowSink is the write side: the collector merge streams rows into a
// sink, then seals it into the Store the Dataset keeps. Append must be
// called from a single goroutine; implementations report deferred I/O
// errors at Seal.
type RowSink interface {
	Append(Row)
	Seal() (Store, error)
}

// MemStore is the default in-memory columnar store. It implements both
// RowSink and Store: Append is usable before Seal, reads any time, so
// tests can build datasets incrementally.
//
// In compressed-resident mode (NewMemStoreCompressed) every chunk that
// fills is immediately encoded through the chunk codec and kept only
// as a compressed block plus its resident class column; the open tail
// chunk stays wide. Reads decode into the caller's buffer. Sealed
// blocks are immutable, which is what lets the live collector's epoch
// snapshots share them by reference instead of copying column slices.
type MemStore struct {
	chunkRows int
	compress  bool
	n         int

	// Wide mode: all chunks resident.
	chunks []*Chunk

	// Compressed mode: sealed blocks + resident classes, plus the open
	// tail chunk (nil until the first append after a seal). zones holds
	// each sealed block's zone map resident (nil entries for blocks
	// restored from checkpoints that predate zone maps); breakdown
	// accumulates the per-scheme encoding census.
	blocks    [][]byte
	classes   [][]Class
	zones     []*ZoneMap
	breakdown EncBreakdown
	open      *Chunk
}

// NewMemStore returns an empty in-memory columnar store with the
// default chunk size.
func NewMemStore() *MemStore { return &MemStore{chunkRows: DefaultChunkRows} }

// NewMemStoreChunked returns an empty in-memory store with a custom
// chunk size (tests use small chunks to exercise multi-chunk paths).
func NewMemStoreChunked(chunkRows int) *MemStore {
	if chunkRows < 1 {
		chunkRows = DefaultChunkRows
	}
	return &MemStore{chunkRows: chunkRows}
}

// NewMemStoreCompressed returns an empty in-memory store in
// compressed-resident mode: full chunks are kept as codec blocks (the
// class column stays wide and mutable), cutting resident memory
// severalfold at the cost of a decode per chunk read. chunkRows <= 0
// selects DefaultChunkRows.
func NewMemStoreCompressed(chunkRows int) *MemStore {
	if chunkRows < 1 {
		chunkRows = DefaultChunkRows
	}
	return &MemStore{chunkRows: chunkRows, compress: true}
}

// StoreOf builds an in-memory store holding the given rows.
func StoreOf(rows ...Row) *MemStore {
	st := NewMemStore()
	for _, r := range rows {
		st.Append(r)
	}
	return st
}

// Compressed reports whether the store runs in compressed-resident
// mode.
func (st *MemStore) Compressed() bool { return st.compress }

// Append implements RowSink.
func (st *MemStore) Append(r Row) {
	if st.compress {
		if st.open == nil {
			st.open = &Chunk{}
			st.open.grow(st.chunkRows)
		}
		st.open.appendRow(r)
		st.n++
		if st.open.Len() == st.chunkRows {
			st.sealOpen()
		}
		return
	}
	if len(st.chunks) == 0 || st.chunks[len(st.chunks)-1].Len() == st.chunkRows {
		c := &Chunk{}
		c.grow(st.chunkRows)
		st.chunks = append(st.chunks, c)
	}
	st.chunks[len(st.chunks)-1].appendRow(r)
	st.n++
}

// sealOpen encodes the full open chunk into a compressed block,
// retains its class column, and drops the wide columns. The open
// chunk buffer is not reused: epoch snapshots may still hold capped
// views of it, so a fresh buffer is allocated for the next chunk and
// the sealed one is left to the GC once unreferenced.
func (st *MemStore) sealOpen() {
	cc := GetCodec()
	st.blocks = append(st.blocks, cc.EncodeBlock(st.open, true, nil))
	zm := cc.EncodedZone()
	st.zones = append(st.zones, &zm)
	tags, sizes, zoneBytes := cc.EncodedColStats()
	st.breakdown.addBlock(st.open.Len(), tags, sizes, zoneBytes)
	PutCodec(cc)
	st.classes = append(st.classes, st.open.Class)
	st.open = nil
}

// Seal implements RowSink. A MemStore is its own sealed Store.
func (st *MemStore) Seal() (Store, error) { return st, nil }

// Len implements Store.
func (st *MemStore) Len() int { return st.n }

// NumChunks implements Store.
func (st *MemStore) NumChunks() int {
	if st.compress {
		n := len(st.blocks)
		if st.open != nil && st.open.Len() > 0 {
			n++
		}
		return n
	}
	return len(st.chunks)
}

// ChunkRows implements Store.
func (st *MemStore) ChunkRows() int { return st.chunkRows }

// SealedBlocks returns the number of compressed sealed chunks (0 in
// wide mode). The epoch snapshot builder shares those blocks by
// reference.
func (st *MemStore) SealedBlocks() int { return len(st.blocks) }

// Block returns sealed compressed block i. The returned slice is
// immutable; callers may retain it indefinitely.
func (st *MemStore) Block(i int) []byte { return st.blocks[i] }

// Chunk implements Store. Wide chunks are returned resident (buf
// ignored); compressed sealed chunks decode into buf, allocating one
// when nil.
func (st *MemStore) Chunk(i int, buf *Chunk) (*Chunk, error) {
	if !st.compress {
		return st.chunks[i], nil
	}
	if i >= len(st.blocks) {
		return st.open, nil
	}
	if buf == nil {
		buf = &Chunk{}
	}
	if err := buf.codec().DecodeBlock(st.blocks[i], len(st.classes[i]), buf); err != nil {
		return nil, fmt.Errorf("classify: decode resident block %d: %w", i, err)
	}
	buf.Class = st.classes[i]
	return buf, nil
}

// Classes implements Store.
func (st *MemStore) Classes(i int) []Class {
	if st.compress {
		if i < len(st.classes) {
			return st.classes[i]
		}
		return st.open.Class
	}
	return st.chunks[i].Class
}

// Close implements Store; in-memory stores hold no external resources.
func (st *MemStore) Close() error { return nil }

// ScanCols implements Store.
func (st *MemStore) ScanCols(cols ColSet, fn func(base int, pc *ProjChunk)) {
	ScanStoreCols(st, cols, fn)
}

// BlockBytes implements BlockReader: sealed compressed blocks are
// returned resident (scratch unused); wide chunks and the open tail
// report nil so the projection path loads them through Chunk.
func (st *MemStore) BlockBytes(i int, _ *[]byte) ([]byte, error) {
	if st.compress && i < len(st.blocks) {
		return st.blocks[i], nil
	}
	return nil, nil
}

// ZoneMap implements ZoneMapped. Wide stores and the open tail chunk
// have none; blocks restored from pre-zone-map checkpoints may yield
// nil entries.
func (st *MemStore) ZoneMap(i int) *ZoneMap {
	if i < len(st.zones) {
		return st.zones[i]
	}
	return nil
}

// Footprint is the memory accounting of a store: how many bytes of row
// data are resident wide, how many live as compressed codec blocks, and
// how many chunks are sealed. RawEquivalentBytes (Rows*RowWidthBytes)
// is what the same rows would occupy fully wide — the compression
// yardstick.
type Footprint struct {
	Rows            int
	ResidentBytes   int64 // wide columns (including resident class columns)
	CompressedBytes int64 // sealed codec blocks
	SealedChunks    int
	// Breakdown is the per-scheme encoding census of the sealed
	// blocks (zero-valued for wide stores).
	Breakdown EncBreakdown
}

// EncBreakdown is the per-scheme encoding census of a store's sealed
// blocks: the column-rows (rows × columns) each scheme covers, the
// framed bytes it produced, the column-rows that additionally went
// through the LZ4 wrapper, and the bytes spent on zone-map sections.
type EncBreakdown struct {
	SchemeRows   [numSchemes]int64
	SchemeBytes  [numSchemes]int64
	LZ4Rows      int64
	ZoneMapBytes int64
}

// SchemeName returns the display name of encoding scheme index s
// (the EncBreakdown array index space).
func SchemeName(s int) string {
	switch s {
	case colRaw:
		return "raw"
	case colRLE:
		return "rle"
	case colDelta:
		return "delta"
	case colDict:
		return "dict"
	default:
		return "unknown"
	}
}

// addBlock folds one encoded block's column stats into the census.
func (b *EncBreakdown) addBlock(rows int, tags [numCols]byte, sizes [numCols]int, zoneBytes int) {
	for col, tag := range tags {
		base := int(tag &^ colLZ4)
		if base >= numSchemes {
			continue
		}
		b.SchemeRows[base] += int64(rows)
		b.SchemeBytes[base] += int64(sizes[col])
		if tag&colLZ4 != 0 {
			b.LZ4Rows += int64(rows)
		}
	}
	b.ZoneMapBytes += int64(zoneBytes)
}

// add merges another census into b (snapshot aggregation).
func (b *EncBreakdown) add(o EncBreakdown) {
	for i := 0; i < numSchemes; i++ {
		b.SchemeRows[i] += o.SchemeRows[i]
		b.SchemeBytes[i] += o.SchemeBytes[i]
	}
	b.LZ4Rows += o.LZ4Rows
	b.ZoneMapBytes += o.ZoneMapBytes
}

// RawEquivalentBytes returns the fully-wide size of the stored rows.
func (f Footprint) RawEquivalentBytes() int64 { return int64(f.Rows) * RowWidthBytes }

// Footprint reports the store's current memory accounting. In wide mode
// everything is resident; in compressed-resident mode sealed chunks
// count their block bytes plus the one-byte-per-row class column that
// stays wide and mutable, and the open tail chunk counts fully wide.
func (st *MemStore) Footprint() Footprint {
	fp := Footprint{Rows: st.n, SealedChunks: len(st.blocks), Breakdown: st.breakdown}
	if !st.compress {
		for _, c := range st.chunks {
			fp.ResidentBytes += int64(c.Len()) * RowWidthBytes
		}
		return fp
	}
	for i, b := range st.blocks {
		fp.CompressedBytes += int64(len(b))
		fp.ResidentBytes += int64(len(st.classes[i])) // resident class column
	}
	if st.open != nil {
		fp.ResidentBytes += int64(st.open.Len()) * RowWidthBytes
	}
	return fp
}
