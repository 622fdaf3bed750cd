package classify

import (
	"fmt"

	"crossborder/internal/webgraph"
)

// This file is the checkpoint-restore side of the dataset engine: the
// pieces a durable collector (internal/ingest) uses to rebuild a live
// dataset from a checkpoint — interner snapshot in, sealed chunk
// blocks in, merger state replayed from the dataset's own tables —
// such that subsequent appends behave byte-for-byte as if the process
// had never restarted. The fixpoint state needs no restore: a fresh
// LiveSemi's first Extend over the restored rows rebuilds it.

// Strings returns the interned strings in id order as an immutable
// prefix share (ids are append-only, so the prefix never mutates).
// Checkpoints persist this; NewInternerFromStrings inverts it.
func (in *Interner) Strings() []string { return in.strs[:len(in.strs):len(in.strs)] }

// NewInternerFromStrings rebuilds an interner from a Strings()
// snapshot: strs[i] gets id i, so every persisted row's FQDN ids
// resolve to the same strings they named when checkpointed.
func NewInternerFromStrings(strs []string) (*Interner, error) {
	if len(strs) == 0 || strs[0] != "" {
		return nil, fmt.Errorf("classify: interner snapshot must start with the empty string (id 0)")
	}
	in := &Interner{ids: make(map[string]uint32, len(strs)), strs: make([]string, 0, len(strs))}
	for i, s := range strs {
		if _, dup := in.ids[s]; dup {
			return nil, fmt.Errorf("classify: interner snapshot repeats %q", s)
		}
		in.ids[s] = uint32(i)
		in.strs = append(in.strs, s)
	}
	return in, nil
}

// RestoreChunk appends one checkpointed chunk — a framed codec block
// plus its class column — to the store. Chunks must arrive in order on
// a store that has seen no Append, and only the final restored chunk
// may be partial (every checkpoint satisfies both by construction).
// The block is parsed and fully decoded here, so a corrupt frame, a
// row-count mismatch or an unknown column tag is an error now rather
// than a panic on the first scan. A full chunk on a compressed store
// joins the sealed prefix as the block itself; any other chunk is
// decoded into a wide chunk with full chunkRows capacity, so later
// appends to a partial tail never reallocate column arrays out from
// under epoch snapshots.
func (st *MemStore) RestoreChunk(block []byte, classes []Class) error {
	rows := len(classes)
	if rows == 0 || rows > st.chunkRows {
		return fmt.Errorf("classify: restore chunk of %d rows into a %d-row store", rows, st.chunkRows)
	}
	if st.n%st.chunkRows != 0 {
		return fmt.Errorf("classify: restore after a partial chunk (%d rows so far)", st.n)
	}
	sealed := st.compress && rows == st.chunkRows
	// A sealed chunk's decode only validates (nil target): the store
	// keeps the block.
	var c *Chunk
	if !sealed {
		c = &Chunk{}
		c.grow(st.chunkRows)
	}
	cc := GetCodec()
	defer PutCodec(cc)
	var f frame
	err := parseFrame(block, rows, &f)
	if err == nil {
		err = cc.decodeFrame(&f, c)
	}
	if err != nil {
		return fmt.Errorf("classify: restore chunk %d: %w", st.n/st.chunkRows, err)
	}
	cls := make([]Class, rows, st.chunkRows)
	copy(cls, classes)
	st.n += rows
	if !sealed {
		c.Class = cls
		st.wide = append(st.wide, c)
		return nil
	}
	// Checkpoints written before zone maps existed yield a nil zone:
	// pruning is disabled for that chunk, reads are unaffected.
	st.breakdown.addBlock(rows, f.tags, f.sizes, f.zoneBytes)
	st.addBlock(append([]byte(nil), block...), cls, f.zoneMap())
	return nil
}

// EncodeChunk renders chunk i of st as a framed codec block, the
// checkpoint representation of a chunk. A sealed chunk is returned
// through BlockBytes instead of being re-encoded.
func EncodeChunk(st *MemStore, i int) ([]byte, error) {
	var scratch []byte
	if block, err := st.BlockBytes(i, &scratch); block != nil || err != nil {
		return block, err
	}
	cc := GetCodec()
	defer PutCodec(cc)
	return cc.EncodeBlock(st.wide[i-len(st.classes)], nil), nil
}

// NewMergerOver resumes a merger over a restored dataset, appending to
// its store: the country and publisher id assignments continue from the
// dataset's own tables, so the next appended row receives exactly the
// id it would have received had the original merger never stopped. The
// per-source remap tables start empty and refill on first use.
func NewMergerOver(ds *Dataset) *Merger {
	m := &Merger{
		ds:     ds,
		pubIdx: make(map[*webgraph.Publisher]int32, len(ds.Publishers)),
		shards: make(map[*Shard]*Source),
	}
	for i, p := range ds.Publishers {
		m.pubIdx[p] = int32(i)
	}
	return m
}
