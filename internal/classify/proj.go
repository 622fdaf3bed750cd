package classify

import (
	"fmt"
	"sync"
	"sync/atomic"

	"crossborder/internal/netsim"
)

// This file implements the column-projection scan path, the one read
// path of the row store: ScanStoreCols (and ProjChunkAt, for workers
// that stripe chunks themselves) hands kernels a ProjChunk that loads
// only the columns they access, in encoded form where that is
// profitable — RLE columns as (value, run) pairs that aggregate
// arithmetically, dictionary columns as the sorted dictionary plus the
// per-row id stream so predicates translate once per chunk into id
// sets, wide values only for raw columns. Nothing is read or decoded
// until the first column access, so a kernel that inspects the zone
// map or the resident class column and declines the chunk skips the
// block fetch and every decode entirely.

// ColID names one of the nine spilled columns, in frame order.
type ColID uint8

const (
	ColURLHash ColID = iota
	ColIP
	ColFQDN
	ColRefFQDN
	ColPublisher
	ColUser
	ColDay
	ColCountry
	ColFlags
)

// ColSet is a bitmask of ColIDs.
type ColSet uint16

// Has reports whether the set contains c.
func (s ColSet) Has(c ColID) bool { return s&(1<<c) != 0 }

// ViewForm says how a ColView holds its column.
type ViewForm uint8

const (
	// ViewWide holds plain per-row values in Vals.
	ViewWide ViewForm = iota
	// ViewRuns holds (value, run-length) pairs in Runs; runs cover the
	// chunk's rows in order.
	ViewRuns
	// ViewDict holds the sorted distinct values in Dict and the
	// per-row dictionary index in Idx.
	ViewDict
)

// Run is one RLE run: Len consecutive rows share Value.
type Run struct {
	Value uint64
	Len   int
}

// ColView is one decoded column of a ProjChunk in its cheapest
// faithful form. Exactly the fields implied by Form are valid. Views
// are valid until the ProjChunk moves to the next chunk.
type ColView struct {
	Form ViewForm
	Vals []uint64 // ViewWide (also the Wide() expansion scratch)
	Runs []Run    // ViewRuns (also the Runs() coalescing scratch)
	Dict []uint64 // ViewDict: sorted distinct values
	Idx  []uint32 // ViewDict: per-row index into Dict
}

// wideBuf sizes and returns the Vals backing for n rows.
func (v *ColView) wideBuf(n int) []uint64 {
	if cap(v.Vals) < n {
		v.Vals = make([]uint64, n)
	}
	v.Vals = v.Vals[:n]
	return v.Vals
}

// widen returns the column as plain per-row values over n rows,
// expanding runs or dictionary ids into Vals when the held form is not
// already wide.
func (v *ColView) widen(n int) []uint64 {
	if v.Form == ViewWide {
		return v.Vals
	}
	vals := v.wideBuf(n)
	switch v.Form {
	case ViewRuns:
		i := 0
		for _, r := range v.Runs {
			for j := 0; j < r.Len; j++ {
				vals[i+j] = r.Value
			}
			i += r.Len
		}
	case ViewDict:
		for i, k := range v.Idx {
			vals[i] = v.Dict[k]
		}
	}
	return vals
}

// Scan-path counters, exposed on the daemons' /metrics endpoints:
// chunks bound to a ProjChunk, and the subset whose backing was
// fetched.
var (
	statChunksBound   atomic.Int64
	statChunksFetched atomic.Int64
)

// ScanStats is a snapshot of the process-wide projection-scan counters.
type ScanStats struct {
	// ChunksScanned counts chunks bound to a ProjChunk (ScanCols scans
	// and ProjChunkAt alike); ChunksSkipped counts the subset released
	// without loading a single column (zone-map or class-bitmap
	// pruning).
	ChunksScanned int64
	ChunksSkipped int64
}

// ReadScanStats returns the current counter values.
func ReadScanStats() ScanStats {
	// Every fetch follows its bind, so loading fetched first keeps
	// skipped non-negative under concurrent scans.
	fetched := statChunksFetched.Load()
	bound := statChunksBound.Load()
	return ScanStats{ChunksScanned: bound, ChunksSkipped: bound - fetched}
}

// ProjChunk is one chunk as seen by the projection scan path. Zone
// (nil when the chunk has no zone map) and the resident Class column
// are available immediately; spilled columns load lazily on first
// access, so a kernel that returns without touching any column costs
// one class-slice lookup and nothing else. Load failures panic: the
// scan pipelines read stores this process wrote moments earlier, so a
// failure means the backing data was lost under them and no caller can
// do better than fail loudly (load is the error-returning step).
type ProjChunk struct {
	Zone  *ZoneMap
	Class []Class

	st      *MemStore
	ci      int
	rows    int
	loaded  ColSet // columns with a materialized view
	widened ColSet // columns with a materialized Wide() expansion
	fetched bool
	block   []byte // non-nil: framed block; nil after fetch: wide chunk
	fr      frame
	views   [numCols]ColView
	wide    *Chunk // the resident wide chunk, when the chunk is not sealed
	scratch []byte
	cc      ChunkCodec // column decode scratch
}

var projPool = sync.Pool{New: func() any { return new(ProjChunk) }}

// GetProj borrows a reusable projection scratch from the pool.
func GetProj() *ProjChunk { return projPool.Get().(*ProjChunk) }

// PutProj returns a projection scratch to the pool, dropping every
// store reference so pooled buffers never pin class columns or blocks.
func PutProj(pc *ProjChunk) {
	pc.Class = nil
	pc.Zone = nil
	pc.st = nil
	pc.block = nil
	pc.wide = nil
	for i := range pc.fr.pays {
		pc.fr.pays[i] = nil
	}
	projPool.Put(pc)
}

// ProjChunkAt binds pc to chunk i of st, for parallel workers that
// stripe chunk ranges themselves. Nothing is read until the first
// column access.
func ProjChunkAt(st *MemStore, i int, pc *ProjChunk) *ProjChunk {
	statChunksBound.Add(1)
	pc.st, pc.ci = st, i
	pc.Class = st.Classes(i)
	pc.rows = len(pc.Class)
	pc.Zone = st.ZoneMap(i)
	pc.loaded, pc.widened = 0, 0
	pc.fetched = false
	pc.block = nil
	pc.wide = nil
	return pc
}

// Len returns the chunk's row count.
func (pc *ProjChunk) Len() int { return pc.rows }

// fetch pulls the chunk's backing through load, panicking on its
// error.
func (pc *ProjChunk) fetch() {
	pc.fetched = true
	statChunksFetched.Add(1)
	if err := pc.load(); err != nil {
		panic(err.Error())
	}
}

// load pulls the chunk's backing: the framed block for sealed chunks
// (parsed by parseFrame; its zone map fills in when none is resident),
// or the resident wide chunk for everything else. Payloads stay encoded
// until a column is asked for. A short read, checksum mismatch or
// malformed frame is returned as an error.
func (pc *ProjChunk) load() error {
	st := pc.st
	block, err := st.BlockBytes(pc.ci, &pc.scratch)
	if err != nil {
		return err
	}
	if block == nil {
		pc.wide = st.wide[pc.ci-len(st.classes)]
		return nil
	}
	if err := parseFrame(block, pc.rows, &pc.fr); err != nil {
		return fmt.Errorf("classify: project chunk %d: %w", pc.ci, err)
	}
	if pc.Zone == nil && pc.fr.hasZone {
		pc.Zone = &pc.fr.zone
	}
	pc.block = block
	return nil
}

// Col returns column c's view, materializing it on first access: a
// single-column decode out of the framed block, or a copy out of the
// wide chunk on stores without encoded blocks.
func (pc *ProjChunk) Col(c ColID) *ColView {
	v := &pc.views[c]
	if pc.loaded.Has(c) {
		return v
	}
	if !pc.fetched {
		pc.fetch()
	}
	if pc.block != nil {
		if err := pc.cc.decodeColumnView(&pc.fr, int(c), v); err != nil {
			panic(fmt.Sprintf("classify: decode chunk %d column %d: %v", pc.ci, c, err))
		}
	} else {
		// A copy, never an alias: the view scratch is written to by
		// later decodes of the pooled ProjChunk.
		v.Vals = pc.wide.gather(c, v.Vals)
		v.Form = ViewWide
		pc.widened |= 1 << c
	}
	pc.loaded |= 1 << c
	return v
}

// Wide returns column c as plain per-row values, expanding runs or
// dictionary ids into the view's scratch when the encoded form is not
// already wide — the late-materialization escape hatch.
func (pc *ProjChunk) Wide(c ColID) []uint64 {
	v := pc.Col(c)
	if !pc.widened.Has(c) {
		v.widen(pc.rows)
		pc.widened |= 1 << c
	}
	return v.Vals
}

// Row gathers row i of the chunk back into array-of-structs form,
// widening every column on first use.
func (pc *ProjChunk) Row(i int) Row {
	return Row{
		URLHash:   pc.Wide(ColURLHash)[i],
		IP:        netsim.IP(pc.Wide(ColIP)[i]),
		FQDN:      uint32(pc.Wide(ColFQDN)[i]),
		RefFQDN:   uint32(pc.Wide(ColRefFQDN)[i]),
		Publisher: int32(pc.Wide(ColPublisher)[i]),
		User:      int32(pc.Wide(ColUser)[i]),
		Day:       uint16(pc.Wide(ColDay)[i]),
		Country:   uint8(pc.Wide(ColCountry)[i]),
		Flags:     uint8(pc.Wide(ColFlags)[i]),
		Class:     pc.Class[i],
	}
}

// Runs returns column c as maximal (value, run) pairs, coalescing from
// the wide form when the column was not RLE-encoded. Aggregations over
// run-heavy columns (Country, User, Publisher, Day) iterate runs and
// multiply instead of visiting rows.
func (pc *ProjChunk) Runs(c ColID) []Run {
	v := pc.Col(c)
	if v.Form == ViewRuns {
		return v.Runs
	}
	vals := pc.Wide(c)
	v.Runs = v.Runs[:0]
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		v.Runs = append(v.Runs, Run{Value: vals[i], Len: j - i})
		i = j
	}
	return v.Runs
}

// DictView returns column c's dictionary and per-row id stream when the
// column is dictionary-encoded, so predicates evaluate once per
// distinct value instead of once per row. ok is false otherwise.
func (pc *ProjChunk) DictView(c ColID) (dict []uint64, idx []uint32, ok bool) {
	v := pc.Col(c)
	if v.Form != ViewDict {
		return nil, nil, false
	}
	return v.Dict, v.Idx, true
}

// AnyTracking reports whether any class in cls marks a tracking flow,
// with early exit. It is the authoritative chunk-skip test for
// tracking-only kernels: the zone map's seal-time ClassBits can go
// stale because the semi-stage fixpoint reclassifies resident classes
// after sealing, but this scan always reads current truth.
func AnyTracking(cls []Class) bool {
	for _, c := range cls {
		if c.IsTracking() {
			return true
		}
	}
	return false
}

// ScanStoreCols walks st chunk by chunk through the projection path,
// driving fn over every chunk through one pooled ProjChunk: the zone
// map and resident class column are available immediately, the other
// columns load lazily, in encoded form where profitable, on the
// kernel's first access.
func ScanStoreCols(st *MemStore, fn func(base int, pc *ProjChunk)) {
	pc := GetProj()
	defer PutProj(pc)
	base := 0
	for i := 0; i < st.NumChunks(); i++ {
		ProjChunkAt(st, i, pc)
		fn(base, pc)
		base += pc.rows
	}
}
