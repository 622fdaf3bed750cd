package classify

import "crossborder/internal/netsim"

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
// rows: a store's wide chunks, and the target of a full-width block
// decode (DecodeBlockInto). All column slices share the same length.
// In a store the Class column is the resident class storage, which a
// sealed chunk keeps beside its block.
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

// gather copies column col of c into dst, grown to c.Len() rows, with
// every value widened to uint64: the one typed-to-uint64 column read,
// shared by the encoder and by projected reads of wide chunks.
func (c *Chunk) gather(col ColID, dst []uint64) []uint64 {
	n := c.Len()
	if cap(dst) < n {
		dst = make([]uint64, n)
	}
	vals := dst[:n]
	switch col {
	case ColURLHash:
		copy(vals, c.URLHash)
	case ColIP:
		widen(vals, c.IP)
	case ColFQDN:
		widen(vals, c.FQDN)
	case ColRefFQDN:
		widen(vals, c.RefFQDN)
	case ColPublisher:
		widen(vals, c.Publisher)
	case ColUser:
		widen(vals, c.User)
	case ColDay:
		widen(vals, c.Day)
	case ColCountry:
		widen(vals, c.Country)
	case ColFlags:
		widen(vals, c.Flags)
	}
	return vals
}

// widen copies src into dst as uint64 values; signed values widen
// through their unsigned 32-bit pattern.
func widen[T ~uint8 | ~uint16 | ~uint32 | ~int32](dst []uint64, src []T) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = uint64(uint32(v))
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

// MemStore is the row store: a sequence of columnar chunks, every one
// except the last holding exactly ChunkRows rows. The chunks are a
// prefix of sealed codec blocks, each with its resident class column
// and zone map, followed by a suffix of wide chunks. Append writes the
// last wide chunk. Every read goes through a ProjChunk (ScanStoreCols,
// ProjChunkAt), which decodes only the columns a kernel touches out of
// a sealed block, or copies them out of a wide chunk. The Class column
// is resident and shared in both: a write through one view is seen by
// every other. Concurrent reads through distinct ProjChunks are safe
// (the parallel scans in core.Join rely on this); Append must be
// called from a single goroutine.
//
// The constructors fix the two things that vary. A wide store
// (NewMemStore, NewMemStoreChunked) never seals, so every chunk stays
// wide. A compressed store (NewMemStoreCompressed, NewMemStoreSpilled)
// seals each chunk into a codec block the moment it fills, so its wide
// suffix holds at most the open tail. Sealed block bytes stay resident,
// or live in a spill file (NewMemStoreSpilled). Sealed blocks are
// immutable and wide columns are append-only, which is what lets Freeze
// share them by reference instead of copying column slices.
type MemStore struct {
	chunkRows int
	compress  bool // a chunk seals into a codec block when it fills
	n         int

	// The sealed prefix: per chunk, the resident class column, the
	// zone map (nil for blocks restored from checkpoints that predate
	// zone maps) and the cumulative block bytes through it; plus the
	// per-scheme encoding census over all of them. The block bytes
	// are in blocks, or in file when the store spills.
	classes   [][]Class
	zones     []*ZoneMap
	ends      []int64
	breakdown EncBreakdown
	blocks    [][]byte
	file      *spillFile

	// The wide suffix.
	wide []*Chunk
}

// NewMemStore returns an empty wide store with the default chunk size.
func NewMemStore() *MemStore { return NewMemStoreChunked(0) }

// NewMemStoreChunked returns an empty wide store with a custom chunk
// size (tests use small chunks to exercise multi-chunk paths).
// chunkRows <= 0 selects DefaultChunkRows.
func NewMemStoreChunked(chunkRows int) *MemStore {
	if chunkRows < 1 {
		chunkRows = DefaultChunkRows
	}
	return &MemStore{chunkRows: chunkRows}
}

// NewMemStoreCompressed returns an empty compressed store: full chunks
// are kept as resident codec blocks (the class column stays wide and
// mutable), cutting resident memory severalfold at the cost of a decode
// per chunk read. chunkRows <= 0 selects DefaultChunkRows.
func NewMemStoreCompressed(chunkRows int) *MemStore {
	st := NewMemStoreChunked(chunkRows)
	st.compress = true
	return st
}

// StoreOf builds a wide store holding the given rows.
func StoreOf(rows ...Row) *MemStore {
	st := NewMemStore()
	for _, r := range rows {
		st.Append(r)
	}
	return st
}

// Compressed reports whether full chunks seal into codec blocks.
func (st *MemStore) Compressed() bool { return st.compress }

// Append adds one row to the open (last wide) chunk, sealing it when
// it fills on a compressed store.
func (st *MemStore) Append(r Row) {
	if len(st.wide) == 0 || st.wide[len(st.wide)-1].Len() == st.chunkRows {
		c := &Chunk{}
		c.grow(st.chunkRows)
		st.wide = append(st.wide, c)
	}
	open := st.wide[len(st.wide)-1]
	open.appendRow(r)
	st.n++
	if st.compress && open.Len() == st.chunkRows {
		st.sealOpen()
	}
}

// sealOpen encodes the open chunk into a codec block, moves it into the
// sealed prefix with its class column, and drops the wide columns. The
// open chunk buffer is not reused: frozen stores may still hold capped
// views of it, so the next Append allocates a fresh one and the sealed
// one is left to the GC once unreferenced.
func (st *MemStore) sealOpen() {
	last := len(st.wide) - 1
	c := st.wide[last]
	st.wide[last] = nil
	st.wide = st.wide[:last]
	cc := GetCodec()
	defer PutCodec(cc)
	var dst []byte
	if st.file != nil {
		dst = st.file.enc[:0]
	}
	block := cc.EncodeBlock(c, dst)
	zm := cc.encZone
	st.breakdown.addBlock(c.Len(), cc.encTags, cc.encSizes, cc.encZoneBytes)
	st.addBlock(block, c.Class, &zm)
}

// addBlock appends one sealed chunk: its block bytes go to the spill
// file or stay resident, and its class column and zone map stay
// resident.
func (st *MemStore) addBlock(block []byte, cls []Class, zm *ZoneMap) {
	start := st.blockStart(len(st.ends))
	if st.file != nil {
		st.file.write(block, start)
	} else {
		st.blocks = append(st.blocks, block)
	}
	st.classes = append(st.classes, cls)
	st.zones = append(st.zones, zm)
	st.ends = append(st.ends, start+int64(len(block)))
}

// blockStart returns the byte offset at which sealed block i starts.
func (st *MemStore) blockStart(i int) int64 {
	if i == 0 {
		return 0
	}
	return st.ends[i-1]
}

// Seal finishes the write side. On a spilled store it also seals the
// partial tail chunk, so every chunk lives in the spill file, and
// reports the first deferred write error, closing the file; no Append
// may follow. On the other stores it does nothing.
func (st *MemStore) Seal() error {
	if st.file == nil {
		return nil
	}
	if len(st.wide) > 0 {
		st.sealOpen()
	}
	if err := st.file.err; err != nil {
		st.Close()
		return err
	}
	return nil
}

// Len returns the total number of rows.
func (st *MemStore) Len() int { return st.n }

// NumChunks returns the number of chunks, sealed and wide.
func (st *MemStore) NumChunks() int { return len(st.classes) + len(st.wide) }

// ChunkRows returns the fixed per-chunk row capacity.
func (st *MemStore) ChunkRows() int { return st.chunkRows }

// Classes returns the resident, mutable class column of chunk i
// without loading any other column.
func (st *MemStore) Classes(i int) []Class {
	if i < len(st.classes) {
		return st.classes[i]
	}
	return st.wide[i-len(st.classes)].Class
}

// ZoneMap returns chunk i's resident zone map. A nil result (wide
// chunks, blocks restored from checkpoints written before zone maps
// existed) just disables pruning for that chunk.
func (st *MemStore) ZoneMap(i int) *ZoneMap {
	if i < len(st.zones) {
		return st.zones[i]
	}
	return nil
}

// BlockBytes returns chunk i's framed codec block: the resident block,
// or the block read from the spill file into *scratch (grown as
// needed). A nil block with nil error means chunk i is wide. A short
// read is returned as an error: truncation of a spill file must surface
// to the caller rather than crash the process.
func (st *MemStore) BlockBytes(i int, scratch *[]byte) ([]byte, error) {
	switch {
	case i >= len(st.classes):
		return nil, nil
	case st.file == nil:
		return st.blocks[i], nil
	}
	return st.file.read(i, st.blockStart(i), st.ends[i], scratch)
}

// Close releases the spill file, if any (a Freeze of a spilled store
// shares it). The store must not be used afterwards.
func (st *MemStore) Close() error {
	if st.file == nil {
		return nil
	}
	return st.file.close()
}

// Freeze returns a read-only MemStore holding st's rows and classes as
// of now, which later appends and class writes on st never change: the
// live collector's epoch snapshots. Sealed blocks, zone maps and the
// spill file are shared by reference; wide chunks become column views
// capped at their current length, so appends never write through them.
// Class columns are copied, except that a chunk below
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
	sealed := len(st.classes)
	fr := &MemStore{
		chunkRows: st.chunkRows,
		compress:  st.compress,
		n:         st.n,
		classes:   classes[:sealed:sealed],
		zones:     st.zones[:sealed:sealed],
		ends:      st.ends[:sealed:sealed],
		breakdown: st.breakdown,
		blocks:    st.blocks[:len(st.blocks):len(st.blocks)],
		file:      st.file,
		wide:      make([]*Chunk, len(st.wide)),
	}
	views := make([]Chunk, len(st.wide))
	for k, c := range st.wide {
		views[k] = c.capped(classes[sealed+k])
		fr.wide[k] = &views[k]
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

// Footprint reports the store's current memory accounting: sealed
// chunks count their block bytes (resident or spilled) plus the
// one-byte-per-row class column that stays wide and mutable, and wide
// chunks count fully wide.
func (st *MemStore) Footprint() Footprint {
	fp := Footprint{
		Rows:            st.n,
		CompressedBytes: st.blockStart(len(st.ends)),
		SealedChunks:    len(st.classes),
		Breakdown:       st.breakdown,
	}
	for _, cls := range st.classes {
		fp.ResidentBytes += int64(len(cls))
	}
	for _, c := range st.wide {
		fp.ResidentBytes += int64(c.Len()) * RowWidthBytes
	}
	return fp
}
