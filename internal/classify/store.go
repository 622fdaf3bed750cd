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

// capped returns a view of c's columns capped at their current length,
// with cls as its class column: appends to c never write through it.
func (c *Chunk) capped(cls []Class) Chunk {
	n := c.Len()
	return Chunk{
		URLHash:   c.URLHash[:n:n],
		IP:        c.IP[:n:n],
		FQDN:      c.FQDN[:n:n],
		RefFQDN:   c.RefFQDN[:n:n],
		Publisher: c.Publisher[:n:n],
		User:      c.User[:n:n],
		Day:       c.Day[:n:n],
		Country:   c.Country[:n:n],
		Flags:     c.Flags[:n:n],
		Class:     cls,
	}
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
// EachRow and the semi-stage fixpoint all draw their scratch from here.
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
// chunks. Implementations must support concurrent Chunk and BlockBytes
// calls with distinct bufs (the parallel scans in core.Join rely on
// this). The Class column returned by both Chunk and Classes is
// resident and shared: a write through one view is seen by every
// other. MemStore and SpillStore are the two implementations; every
// kernel reads either one through ScanStoreCols.
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
	// BlockBytes returns chunk i's framed codec block, reading into
	// *scratch (grown as needed) for disk-backed stores or returning
	// the resident block directly. A nil block with nil error means
	// chunk i is resident wide (a wide store's chunks, the open tail
	// chunk) and must be loaded through Chunk.
	BlockBytes(i int, scratch *[]byte) ([]byte, error)
	// ZoneMap returns chunk i's resident zone map. A nil result (wide
	// chunks, the open tail, blocks restored from checkpoints written
	// before zone maps existed) just disables pruning for that chunk.
	ZoneMap(i int) *ZoneMap
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
// blocks are immutable and wide columns are append-only, which is what
// lets Freeze share them by reference instead of copying column
// slices.
type MemStore struct {
	chunkRows int
	compress  bool
	n         int

	// Wide mode: all chunks resident.
	chunks []*Chunk

	// Compressed mode: sealed blocks with their resident classes, zone
	// maps and census, plus the open tail chunk (nil until the first
	// append after a seal).
	blocks [][]byte
	sealedCols
	open *Chunk
}

// sealedCols is the resident side of a block-backed store's sealed
// chunks: each chunk's class column and zone map (nil entries for
// blocks restored from checkpoints that predate zone maps), plus the
// per-scheme encoding census over all of them.
type sealedCols struct {
	classes   [][]Class
	zones     []*ZoneMap
	breakdown EncBreakdown
}

// seal is the one seal routine of both block-backed stores: it appends
// chunk c's framed codec block to dst, then records the block's zone
// map, folds its column stats into the census, and retains cls as the
// chunk's resident class column.
func (s *sealedCols) seal(c *Chunk, cls []Class, dst []byte) []byte {
	cc := GetCodec()
	defer PutCodec(cc)
	dst = cc.EncodeBlock(c, dst)
	zm := cc.encZone
	s.zones = append(s.zones, &zm)
	s.breakdown.addBlock(c.Len(), cc.encTags, cc.encSizes, cc.encZoneBytes)
	s.classes = append(s.classes, cls)
	return dst
}

// ZoneMap implements Store.
func (s *sealedCols) ZoneMap(i int) *ZoneMap {
	if i < len(s.zones) {
		return s.zones[i]
	}
	return nil
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
// chunk buffer is not reused: frozen stores may still hold capped
// views of it, so a fresh buffer is allocated for the next chunk and
// the sealed one is left to the GC once unreferenced.
func (st *MemStore) sealOpen() {
	st.blocks = append(st.blocks, st.seal(st.open, st.open.Class, nil))
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

// BlockBytes implements Store: sealed compressed blocks are returned
// resident (scratch unused); wide chunks and the open tail report nil.
func (st *MemStore) BlockBytes(i int, _ *[]byte) ([]byte, error) {
	if i < len(st.blocks) {
		return st.blocks[i], nil
	}
	return nil, nil
}

// Freeze returns a read-only MemStore holding st's rows and classes as
// of now, which later appends and class writes on st never change: the
// live collector's epoch snapshots. Sealed blocks and zone maps are
// shared by reference; wide chunks and the open tail become column
// views capped at their current length, so appends never write through
// them. Class columns are copied, except that a chunk below
// prevRows/ChunkRows and absent from dirty reuses prev's copy: prev
// must be st's previous Freeze (or nil), taken when st held prevRows
// rows, and dirty must name every chunk whose classes changed since.
func (st *MemStore) Freeze(prev *MemStore, prevRows int, dirty map[int]struct{}) *MemStore {
	numChunks := st.NumChunks()
	firstDirty := prevRows / st.chunkRows
	classes := make([][]Class, numChunks)
	for ci := range classes {
		_, flipped := dirty[ci]
		if prev != nil && ci < firstDirty && !flipped {
			classes[ci] = prev.Classes(ci)
		} else {
			classes[ci] = append([]Class(nil), st.Classes(ci)...)
		}
	}
	fr := &MemStore{chunkRows: st.chunkRows, compress: st.compress, n: st.n}
	if !st.compress {
		views := make([]Chunk, numChunks)
		fr.chunks = make([]*Chunk, numChunks)
		for ci, c := range st.chunks {
			views[ci] = c.capped(classes[ci])
			fr.chunks[ci] = &views[ci]
		}
		return fr
	}
	sealed := len(st.blocks)
	fr.blocks = st.blocks[:sealed:sealed]
	fr.zones = st.zones[:sealed:sealed]
	fr.classes = classes[:sealed:sealed]
	fr.breakdown = st.breakdown
	if sealed < numChunks {
		tail := st.open.capped(classes[sealed])
		fr.open = &tail
	}
	return fr
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
