package classify

import (
	"math/rand"
	"testing"
)

// projVariants builds the three store layouts over the same rows: the
// wide and compressed in-memory stores, and the spilled store.
func projVariants(t *testing.T, rows []Row, chunkRows int) map[string]*MemStore {
	t.Helper()
	out := make(map[string]*MemStore)
	for name, mk := range map[string]func() (*MemStore, error){
		"mem/wide":       func() (*MemStore, error) { return NewMemStoreChunked(chunkRows), nil },
		"mem/compressed": func() (*MemStore, error) { return NewMemStoreCompressed(chunkRows), nil },
		"spill/compressed": func() (*MemStore, error) {
			return NewMemStoreSpilled(t.TempDir(), chunkRows)
		},
	} {
		st, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			st.Append(r)
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		out[name] = st
	}
	return out
}

// colVal reads column col of row i from a wide chunk with the same
// unsigned widening the projection views use.
func colVal(c *Chunk, col ColID, i int) uint64 {
	switch col {
	case ColURLHash:
		return c.URLHash[i]
	case ColIP:
		return uint64(uint32(c.IP[i]))
	case ColFQDN:
		return uint64(c.FQDN[i])
	case ColRefFQDN:
		return uint64(c.RefFQDN[i])
	case ColPublisher:
		return uint64(uint32(c.Publisher[i]))
	case ColUser:
		return uint64(uint32(c.User[i]))
	case ColDay:
		return uint64(c.Day[i])
	case ColCountry:
		return uint64(c.Country[i])
	case ColFlags:
		return uint64(c.Flags[i])
	}
	panic("bad col")
}

// TestScanColsMatchesScan is the pushdown equivalence property: for
// every one of the 512 subsets of columns a kernel may touch, over every
// store backend, ScanCols must deliver exactly the values the full-width
// oracle read (wideChunk) delivers — through Wide, and consistently
// through the encoded Runs and DictView forms.
func TestScanColsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := codecRows(rng, 2000) // adversarial shapes: every scheme appears
	const chunkRows = 512
	for name, st := range projVariants(t, rows, chunkRows) {
		// Full-width reference, chunk by chunk.
		var ref []*Chunk
		for ci := 0; ci < st.NumChunks(); ci++ {
			ref = append(ref, wideChunk(st, ci))
		}
		for cols := ColSet(0); cols < 1<<numCols; cols++ {
			base := 0
			chunkIdx := 0
			ScanStoreCols(st, func(gotBase int, pc *ProjChunk) {
				if gotBase != base {
					t.Fatalf("%s cols=%09b: base %d, want %d", name, cols, gotBase, base)
				}
				w := ref[chunkIdx]
				if pc.Len() != w.Len() {
					t.Fatalf("%s cols=%09b chunk %d: %d rows, want %d", name, cols, chunkIdx, pc.Len(), w.Len())
				}
				for i, cls := range pc.Class {
					if cls != w.Class[i] {
						t.Fatalf("%s cols=%09b chunk %d row %d: class %v, want %v", name, cols, chunkIdx, i, cls, w.Class[i])
					}
				}
				for col := ColID(0); col < numCols; col++ {
					if !cols.Has(col) {
						continue
					}
					vals := pc.Wide(col)
					for i := range vals {
						if want := colVal(w, col, i); vals[i] != want {
							t.Fatalf("%s cols=%09b chunk %d col %d row %d: %d, want %d",
								name, cols, chunkIdx, col, i, vals[i], want)
						}
					}
				}
				base += pc.Len()
				chunkIdx++
			})
			if chunkIdx != st.NumChunks() {
				t.Fatalf("%s cols=%09b: scanned %d chunks, want %d", name, cols, chunkIdx, st.NumChunks())
			}
		}
		// Encoded-form consistency on the full projection: runs expand to
		// the wide values, dictionaries index to them.
		ci := 0
		ScanStoreCols(st, func(_ int, pc *ProjChunk) {
			w := ref[ci]
			for col := ColID(0); col < numCols; col++ {
				row := 0
				for _, r := range pc.Runs(col) {
					if r.Len <= 0 {
						t.Fatalf("%s chunk %d col %d: non-positive run", name, ci, col)
					}
					for k := 0; k < r.Len; k++ {
						if want := colVal(w, col, row+k); r.Value != want {
							t.Fatalf("%s chunk %d col %d row %d: run value %d, want %d", name, ci, col, row+k, r.Value, want)
						}
					}
					row += r.Len
				}
				if row != w.Len() {
					t.Fatalf("%s chunk %d col %d: runs cover %d rows, want %d", name, ci, col, row, w.Len())
				}
				if dict, idx, ok := pc.DictView(col); ok {
					for k := 1; k < len(dict); k++ {
						if dict[k-1] >= dict[k] {
							t.Fatalf("%s chunk %d col %d: dictionary not strictly sorted", name, ci, col)
						}
					}
					for i := range idx {
						if want := colVal(w, col, i); dict[idx[i]] != want {
							t.Fatalf("%s chunk %d col %d row %d: dict value %d, want %d", name, ci, col, i, dict[idx[i]], want)
						}
					}
				}
			}
			ci++
		})
	}
}

// TestZoneMapsBoundColumns checks the seal-time zone maps: every sealed
// chunk of a block-backed store carries min/max that actually bound the
// column values, and distinct counts that never undercount.
func TestZoneMapsBoundColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := codecRows(rng, 2000)
	const chunkRows = 512
	for name, st := range projVariants(t, rows, chunkRows) {
		var scratch []byte
		for ci := 0; ci < st.NumChunks(); ci++ {
			zm := st.ZoneMap(ci)
			block, err := st.BlockBytes(ci, &scratch)
			if err != nil {
				t.Fatal(err)
			}
			if block == nil {
				if zm != nil {
					t.Fatalf("%s chunk %d: zone map on a wide resident chunk", name, ci)
				}
				continue
			}
			if zm == nil {
				t.Fatalf("%s chunk %d: sealed block without a zone map", name, ci)
			}
			w := wideChunk(st, ci)
			for col := ColID(0); col < numCols; col++ {
				distinct := make(map[uint64]struct{})
				for i := 0; i < w.Len(); i++ {
					v := colVal(w, col, i)
					distinct[v] = struct{}{}
					if v < zm.Min[col] || v > zm.Max[col] {
						t.Fatalf("%s chunk %d col %d: value %d outside zone [%d, %d]",
							name, ci, col, v, zm.Min[col], zm.Max[col])
					}
				}
				if d := zm.Distinct[col]; d != 0 && int(d) < len(distinct) {
					t.Fatalf("%s chunk %d col %d: zone distinct %d < actual %d", name, ci, col, d, len(distinct))
				}
			}
			// The persisted section must round-trip to the same zone map.
			persisted, err := BlockZoneMap(block)
			if err != nil {
				t.Fatal(err)
			}
			if persisted == nil {
				t.Fatalf("%s chunk %d: block frame carries no zone-map section", name, ci)
			}
			if *persisted != *zm {
				t.Fatalf("%s chunk %d: persisted zone map %+v != resident %+v", name, ci, *persisted, *zm)
			}
		}
	}
}

// TestScanColsSkipAccounting checks the chunk-skip contract: a kernel
// that returns without loading any column counts the chunk as skipped,
// and a store-wide skip never loads a block. Chunks bound directly with
// ProjChunkAt, as the parallel joins and the fixpoint rounds do, count
// the same way.
func TestScanColsSkipAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := randomRows(rng, 1500, 40)
	st, err := func() (*MemStore, error) {
		st, err := NewMemStoreSpilled(t.TempDir(), 256)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			st.Append(r)
		}
		return st, st.Seal()
	}()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	before := ReadScanStats()
	loaded := 0
	ScanStoreCols(st, func(_ int, pc *ProjChunk) {
		if !AnyTracking(pc.Class) {
			return // prune: no column touched
		}
		_ = pc.Wide(ColIP)
		loaded++
	})
	after := ReadScanStats()
	scanned := after.ChunksScanned - before.ChunksScanned
	skipped := after.ChunksSkipped - before.ChunksSkipped
	if scanned != int64(st.NumChunks()) {
		t.Fatalf("scanned %d chunks, want %d", scanned, st.NumChunks())
	}
	if skipped != scanned-int64(loaded) {
		t.Fatalf("skipped %d, want %d (scanned %d, loaded %d)", skipped, scanned-int64(loaded), scanned, loaded)
	}

	// Bind every chunk twice through ProjChunkAt, loading a column on
	// the even chunks of the second pass only.
	before = ReadScanStats()
	pc := GetProj()
	defer PutProj(pc)
	loaded = 0
	for pass := 0; pass < 2; pass++ {
		for ci := 0; ci < st.NumChunks(); ci++ {
			ProjChunkAt(st, ci, pc)
			if pass == 1 && ci%2 == 0 {
				_ = pc.Wide(ColFQDN)
				_ = pc.Wide(ColIP) // a second column fetches nothing more
				loaded++
			}
		}
	}
	after = ReadScanStats()
	scanned = after.ChunksScanned - before.ChunksScanned
	skipped = after.ChunksSkipped - before.ChunksSkipped
	if want := int64(2 * st.NumChunks()); scanned != want {
		t.Fatalf("ProjChunkAt: scanned %d chunks, want %d", scanned, want)
	}
	if skipped != scanned-int64(loaded) {
		t.Fatalf("ProjChunkAt: skipped %d, want %d (scanned %d, loaded %d)", skipped, scanned-int64(loaded), scanned, loaded)
	}
}

// TestLegacyBlocksDecode pins backward compatibility: blocks framed
// before sections existed (flags==0, no zone map) still decode, still
// restore into a compressed store, and still serve projected scans —
// just without pruning.
func TestLegacyBlocksDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := codecRows(rng, 256)
	c := chunkOf(rows)
	cc := GetCodec()
	cc.noSections = true
	legacy := append([]byte(nil), cc.EncodeBlock(c, nil)...)
	cc.noSections = false
	PutCodec(cc)

	if legacy[4] != 0 {
		t.Fatalf("legacy frame flags = %#x, want 0", legacy[4])
	}
	zm, err := BlockZoneMap(legacy)
	if err != nil {
		t.Fatalf("BlockZoneMap on legacy frame: %v", err)
	}
	if zm != nil {
		t.Fatal("legacy frame reports a zone map")
	}
	wide := &Chunk{}
	if err := DecodeBlockInto(legacy, len(rows), wide); err != nil {
		t.Fatalf("legacy frame decode: %v", err)
	}
	wide.Class = make([]Class, len(rows))
	chunksEqual(t, wide, c, len(rows))

	// A checkpoint of legacy blocks restores and scans projected.
	st := NewMemStoreCompressed(256)
	if err := st.RestoreChunk(legacy, c.Class); err != nil {
		t.Fatal(err)
	}
	if st.ZoneMap(0) != nil {
		t.Fatal("restored legacy chunk grew a zone map")
	}
	ScanStoreCols(st, func(_ int, pc *ProjChunk) {
		if pc.Zone != nil {
			t.Fatal("projected scan reports a zone map on a legacy chunk")
		}
		ips := pc.Wide(ColIP)
		for i := range ips {
			if want := uint64(uint32(c.IP[i])); ips[i] != want {
				t.Fatalf("row %d: IP %d, want %d", i, ips[i], want)
			}
		}
	})
}
