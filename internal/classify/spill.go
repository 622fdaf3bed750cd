package classify

import (
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

// spillFile holds a compressed store's sealed block bytes on disk, so
// Scale >> 1 datasets never hold more than the open chunk and the class
// column in memory. Blocks are written at their offsets as they seal
// and read back with positioned reads (pread, no mmap), which are safe
// from concurrent goroutines.
type spillFile struct {
	f       *os.File
	removed bool   // file already unlinked (unix: cleaned up on close)
	enc     []byte // encode scratch, reused across seals
	err     error  // first write error, sticky; Seal reports it
}

// NewMemStoreSpilled returns an empty compressed store whose sealed
// blocks live in a temporary file in dir ("" = the OS temp directory)
// instead of memory. chunkRows <= 0 selects DefaultChunkRows. The
// caller must Seal the store once every row is appended and Close it
// to release the file.
func NewMemStoreSpilled(dir string, chunkRows int) (*MemStore, error) {
	f, err := os.CreateTemp(dir, "crossborder-rows-*.col")
	if err != nil {
		return nil, fmt.Errorf("classify: create spill file: %w", err)
	}
	// Unlink eagerly where the OS allows it: the data stays reachable
	// through the open descriptor and the blocks are reclaimed even if
	// the process dies before Close. If the unlink fails (non-POSIX
	// semantics), Close removes the file by name instead.
	st := NewMemStoreCompressed(chunkRows)
	st.file = &spillFile{f: f, removed: os.Remove(f.Name()) == nil}
	return st, nil
}

// RawSize returns the bytes the fixed-width raw column layout would
// occupy for the store's rows: the reference for the codec's
// compression ratio.
func (st *MemStore) RawSize() int64 { return int64(st.n) * spillRowBytes }

// write stores one sealed block at offset off. After the first failure
// it writes nothing more; the error is kept for Seal.
func (sf *spillFile) write(block []byte, off int64) {
	sf.enc = block
	if sf.err != nil {
		return
	}
	if _, err := sf.f.WriteAt(block, off); err != nil {
		sf.err = fmt.Errorf("classify: write spill chunk: %w", err)
	}
}

// read preads the block of chunk i, bytes [start, end) of the file,
// into *scratch, growing it as needed.
func (sf *spillFile) read(i int, start, end int64, scratch *[]byte) ([]byte, error) {
	need := int(end - start)
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	raw := (*scratch)[:need]
	if _, err := sf.f.ReadAt(raw, start); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("spill file truncated")
		}
		return nil, fmt.Errorf("classify: read spill chunk %d: %w", i, err)
	}
	return raw, nil
}

// close closes the file and removes it if the eager unlink failed.
func (sf *spillFile) close() error {
	name := sf.f.Name()
	err := sf.f.Close()
	if !sf.removed {
		if rmErr := os.Remove(name); err == nil {
			err = rmErr
		}
	}
	return err
}
