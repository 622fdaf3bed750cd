package classify

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// spillRowBytes is the fixed-width encoded size of the nine spilled
// columns of one row (the Class column stays resident: the semi-stage
// fixpoint mutates it after sealing, and at one byte per row it is
// cheap to keep). It is the fixed-width reference the codec's
// compression ratio is measured against.
const spillRowBytes = 8 + 4 + 4 + 4 + 4 + 4 + 2 + 1 + 1

// SpillSink streams rows into fixed-size column chunks and writes each
// full chunk to a temporary file as one framed codec block (checksum,
// declared sizes, per-column encodings — see codec.go), so Scale >> 1
// datasets never hold more than one open chunk in memory on the write
// path. The codec cuts the spill file severalfold against the
// fixed-width column layout. Seal returns the read-side SpillStore,
// which serves chunks with plain sequential pread calls — no mmap —
// and keeps only the class column resident.
type SpillSink struct {
	chunkRows int
	f         *os.File
	removed   bool // file already unlinked (unix: cleaned up on close)
	w         *bufio.Writer
	cur       *Chunk
	enc       []byte
	sealedCols
	offsets []int64
	lens    []int
	dlens   []int
	off     int64
	n       int
	err     error
}

// NewSpillSink creates a compressing spill-to-disk sink backed by a
// temporary file in dir ("" = the OS temp directory). chunkRows <= 0
// selects DefaultChunkRows. The caller owns the sealed store and must
// Close it to release the file.
func NewSpillSink(dir string, chunkRows int) (*SpillSink, error) {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	f, err := os.CreateTemp(dir, "crossborder-rows-*.col")
	if err != nil {
		return nil, fmt.Errorf("classify: create spill file: %w", err)
	}
	// Unlink eagerly where the OS allows it: the data stays reachable
	// through the open descriptor and the blocks are reclaimed even if
	// the process dies before Close. If the unlink fails (non-POSIX
	// semantics), Close removes the file by name instead.
	removed := os.Remove(f.Name()) == nil
	sk := &SpillSink{
		chunkRows: chunkRows,
		f:         f,
		removed:   removed,
		w:         bufio.NewWriterSize(f, 1<<20),
		cur:       &Chunk{},
	}
	sk.cur.grow(chunkRows)
	return sk, nil
}

// Append implements RowSink. I/O errors are sticky and reported by
// Seal.
func (sk *SpillSink) Append(r Row) {
	sk.cur.appendRow(r)
	sk.n++
	if sk.cur.Len() == sk.chunkRows {
		sk.flush()
	}
}

// flush encodes the open chunk to the file and retains its class
// column.
func (sk *SpillSink) flush() {
	n := sk.cur.Len()
	if n == 0 || sk.err != nil {
		return
	}
	sk.enc = sk.seal(sk.cur, append([]Class(nil), sk.cur.Class...), sk.enc[:0])
	if _, err := sk.w.Write(sk.enc); err != nil && sk.err == nil {
		sk.err = fmt.Errorf("classify: write spill chunk: %w", err)
	}
	sk.offsets = append(sk.offsets, sk.off)
	sk.lens = append(sk.lens, n)
	sk.dlens = append(sk.dlens, len(sk.enc))
	sk.off += int64(len(sk.enc))
	sk.cur.reset(0)
	sk.cur.Class = sk.cur.Class[:0]
}

// Seal implements RowSink: it flushes the tail chunk and returns the
// readable store. The sink must not be used afterwards.
func (sk *SpillSink) Seal() (Store, error) {
	sk.flush()
	if sk.err == nil {
		if err := sk.w.Flush(); err != nil {
			sk.err = fmt.Errorf("classify: flush spill file: %w", err)
		}
	}
	if sk.err != nil {
		sk.f.Close()
		if !sk.removed {
			os.Remove(sk.f.Name())
		}
		return nil, sk.err
	}
	return &SpillStore{
		chunkRows:  sk.chunkRows,
		f:          sk.f,
		removed:    sk.removed,
		sealedCols: sk.sealedCols,
		offsets:    sk.offsets,
		lens:       sk.lens,
		dlens:      sk.dlens,
		n:          sk.n,
	}, nil
}

// SpillStore is the sealed read side of a SpillSink. Chunk reads are
// positioned (pread) and therefore safe from concurrent goroutines as
// long as each passes its own decode buffer; the class column is
// resident and shared across all loaded views.
type SpillStore struct {
	chunkRows int
	f         *os.File
	removed   bool
	sealedCols
	offsets []int64
	lens    []int
	dlens   []int
	n       int
}

// Len implements Store.
func (st *SpillStore) Len() int { return st.n }

// NumChunks implements Store.
func (st *SpillStore) NumChunks() int { return len(st.lens) }

// ChunkRows implements Store.
func (st *SpillStore) ChunkRows() int { return st.chunkRows }

// Classes implements Store.
func (st *SpillStore) Classes(i int) []Class { return st.classes[i] }

// Size returns the total bytes written to the spill file — the
// number the compression ratio is measured from.
func (st *SpillStore) Size() int64 {
	if len(st.offsets) == 0 {
		return 0
	}
	return st.offsets[len(st.offsets)-1] + int64(st.dlens[len(st.dlens)-1])
}

// RawSize returns the bytes the fixed-width raw column layout would
// occupy for the same rows: the reference for the compression ratio.
func (st *SpillStore) RawSize() int64 { return int64(st.n) * spillRowBytes }

// Chunk implements Store: it reads chunk i's framed block into buf's
// scratch through BlockBytes (allocating a buffer when buf is nil),
// verifies and decodes it, and points the Class column at the resident
// slice. A short read, checksum mismatch or malformed block returns an
// error — truncation and corruption of the spill file must surface to
// the caller rather than crash the process or balloon memory.
func (st *SpillStore) Chunk(i int, buf *Chunk) (*Chunk, error) {
	if buf == nil {
		buf = &Chunk{}
	}
	raw, err := st.BlockBytes(i, &buf.raw)
	if err != nil {
		return nil, err
	}
	if err := buf.codec().DecodeBlock(raw, st.lens[i], buf); err != nil {
		return nil, fmt.Errorf("classify: decode spill chunk %d: %w", i, err)
	}
	buf.Class = st.classes[i]
	return buf, nil
}

// BlockBytes implements Store: it preads chunk i's framed block into
// *scratch, growing it as needed. Concurrent calls are safe with
// distinct scratch buffers (positioned reads).
func (st *SpillStore) BlockBytes(i int, scratch *[]byte) ([]byte, error) {
	need := st.dlens[i]
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	raw := (*scratch)[:need]
	if _, err := st.f.ReadAt(raw, st.offsets[i]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("spill file truncated")
		}
		return nil, fmt.Errorf("classify: read spill chunk %d: %w", i, err)
	}
	return raw, nil
}

// Footprint implements Store: spilled blocks count as compressed
// bytes, the resident class column as resident bytes.
func (st *SpillStore) Footprint() Footprint {
	return Footprint{
		Rows:            st.n,
		ResidentBytes:   int64(st.n), // one resident class byte per row
		CompressedBytes: st.Size(),
		SealedChunks:    len(st.lens),
		Breakdown:       st.breakdown,
	}
}

// Close implements Store: it closes and removes the spill file.
func (st *SpillStore) Close() error {
	name := st.f.Name()
	err := st.f.Close()
	if !st.removed {
		if rmErr := os.Remove(name); err == nil {
			err = rmErr
		}
	}
	return err
}
