package classify

import (
	"sort"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/webgraph"
)

// This file is the append-epoch side of the dataset engine: the pieces
// that let a long-running collector grow one Dataset across many merge
// rounds instead of building it in a single Finalize. Merger owns the
// id-assignment state (interner, country and publisher indexes) that
// the one-shot merge used to keep in locals, so replaying captures into
// it in the same order produces byte-for-byte the same Dataset. LiveSemi
// is the semi-stage fixpoint, the one engine for classification stages
// 2 and 3 on every route: it carries the LTF membership across epochs
// and, per epoch, classifies only the appended rows plus whatever older
// rows the new tracking FQDNs admit. The batch merge and the fan-in run
// it once over a whole dataset (RunSemiStages).

// Merger incrementally merges per-worker capture shards into one growing
// Dataset, re-interning strings and remapping publisher/country ids
// exactly as a sequential collector would have assigned them: per
// capture, visits first (publishers register on first visit), then rows
// in emit order. The batch Finalize path and the live ingestion
// collector share this code, which is what keeps a replayed upload
// stream byte-identical to the batch merge.
//
// Merger is single-writer: all Append calls must come from one goroutine
// at a time.
type Merger struct {
	ds         *Dataset
	countryIdx map[geodata.Country]uint8
	pubIdx     map[*webgraph.Publisher]int32
}

// NewMerger returns a merger streaming rows into sink, the store of
// the dataset it builds. internHint pre-sizes the dataset interner (0
// is fine for incremental use).
func NewMerger(start time.Time, sink *MemStore, internHint int) *Merger {
	return &Merger{
		ds:         &Dataset{Store: sink, FQDNs: NewInternerSized(internHint), Start: start},
		countryIdx: make(map[geodata.Country]uint8),
		pubIdx:     make(map[*webgraph.Publisher]int32),
	}
}

// Dataset returns the growing dataset. The pointer is stable across
// appends.
func (m *Merger) Dataset() *Dataset { return m.ds }

// AppendCapture replays capture idx of sh into the dataset: its visits
// register publishers in first-visit order, its rows re-intern through
// the dataset's interner and append to the sink.
func (m *Merger) AppendCapture(sh *Shard, idx int) {
	ds := m.ds
	cap := &sh.caps[idx]
	for _, pid := range cap.visits {
		p := sh.pubs[pid]
		if _, ok := m.pubIdx[p]; !ok {
			m.pubIdx[p] = int32(len(ds.Publishers))
			ds.Publishers = append(ds.Publishers, p)
		}
	}
	ds.Visits += len(cap.visits)
	for _, r := range cap.rows {
		r.FQDN = ds.FQDNs.ID(sh.interner.Str(r.FQDN))
		r.RefFQDN = ds.FQDNs.ID(sh.interner.Str(r.RefFQDN))
		// A row's publisher is normally registered by the page visit
		// above (always true for the batch pipeline). An uploaded stream
		// can legally carry requests whose visit was never uploaded;
		// register the publisher here so the row resolves to a real id
		// instead of silently aliasing publisher 0.
		p := sh.pubs[r.Publisher]
		pid, ok := m.pubIdx[p]
		if !ok {
			pid = int32(len(ds.Publishers))
			m.pubIdx[p] = pid
			ds.Publishers = append(ds.Publishers, p)
		}
		r.Publisher = pid
		cc := sh.countries[r.Country]
		cID, ok := m.countryIdx[cc]
		if !ok {
			cID = uint8(len(ds.Countries))
			m.countryIdx[cc] = cID
			ds.Countries = append(ds.Countries, cc)
		}
		r.Country = cID
		m.ds.Store.Append(r)
	}
}

// Captures returns the number of user captures buffered in the shard.
func (sh *Shard) Captures() int { return len(sh.caps) }

// CaptureUser returns the user id of capture idx.
func (sh *Shard) CaptureUser(idx int) int32 { return sh.caps[idx].user }

// ResetCaptures drops the buffered captures so the shard can collect the
// next epoch, keeping the interner, the publisher/country indexes and
// the per-host and per-publisher stage-1 state, none of which grows
// with paths or pages. Captures already appended through a Merger stay
// valid in the dataset; the shard-local ids they used remain stable
// because the interner and indexes are never reset.
func (sh *Shard) ResetCaptures() {
	sh.caps = sh.caps[:0]
	sh.cur = -1
}

// Clone returns a read-only copy of the interner sharing the interned
// strings: the strs prefix is immutable (ids are append-only), so the
// clone and the original can be used concurrently as long as only the
// original keeps interning. The live collector publishes a clone with
// every epoch snapshot.
func (in *Interner) Clone() *Interner {
	ids := make(map[string]uint32, len(in.ids))
	for s, id := range in.ids {
		ids[s] = id
	}
	return &Interner{ids: ids, strs: in.strs[:len(in.strs):len(in.strs)]}
}

// LiveSemi runs classification stages 2 and 3 incrementally over a
// growing dataset. Extend is called after each epoch's rows have been
// appended; it labels the new rows and propagates new tracking FQDNs
// back through the settled rows, carrying the LTF membership across
// calls so no epoch ever rescans from scratch needlessly.
//
// The final classification is row-for-row identical to one Extend over
// the complete dataset: stage 1 is per-row, stage 3 (keyword +
// arguments) converts unconditionally and takes precedence, and stage 2
// is a monotone closure over referrer edges, so neither the least
// fixpoint nor any row's label depends on how the rows were split into
// epochs or on the worker count.
type LiveSemi struct {
	ds      *Dataset
	workers int
	pool    *workerPool
	inLTF   []bool
	rows    int
	// cand holds the settled rows that could still convert — clean,
	// argument-carrying, with a referrer — in index order. Rounds scan
	// only this list (and drop entries as they convert), so per-epoch
	// fixpoint cost is proportional to the convertible frontier, not to
	// the whole store.
	cand []candRow
}

// candRow is one convertible row: its global index and the two columns
// a round tests, carried from the pass that found it so that rounds
// never read the store beyond the resident class column.
type candRow struct {
	g         int
	fqdn, ref uint32
}

// NewLiveSemi returns an incremental fixpoint over ds (which may already
// hold rows; the first Extend covers everything). workers sizes the
// persistent propagation pool (minimum 1). Close releases the pool.
func NewLiveSemi(ds *Dataset, workers int) *LiveSemi {
	if workers < 1 {
		workers = 1
	}
	return &LiveSemi{ds: ds, workers: workers, pool: newWorkerPool(workers)}
}

// Close releases the worker pool. The LiveSemi must not be used
// afterwards.
func (ls *LiveSemi) Close() { ls.pool.Close() }

// RunSemiStages runs classification stages 2 and 3 to the fixpoint over
// every row of ds in one shot: referrer propagation (stage 2) and the
// keyword + arguments heuristic (stage 3). It is the batch merge's and
// the fan-in merge's form of LiveSemi; workers sizes its pool.
func RunSemiStages(ds *Dataset, workers int) {
	ls := NewLiveSemi(ds, workers)
	ls.Extend()
	ls.Close()
}

// Extend classifies the rows appended since the previous call and
// returns the global indices of previously-settled rows (index < the
// previous dataset length) that flipped from clean to tracking because
// a new epoch admitted their referrer FQDN. Rows inside the new epoch
// are not reported — the caller already knows their range and can scan
// their final classes directly.
func (ls *LiveSemi) Extend() (flipped []int) {
	st := ls.ds.Store
	if st == nil {
		return nil
	}
	prev := ls.rows
	total := st.Len()
	if total == prev {
		return nil
	}
	if n := ls.ds.FQDNs.Len(); n > len(ls.inLTF) {
		grown := make([]bool, n)
		copy(grown, ls.inLTF)
		ls.inLTF = grown
	}

	// Pass 1 over the new rows only: tracking rows join the LTF, stage 3
	// (keyword + arguments) converts unconditionally, and the remaining
	// convertible rows — clean with arguments and a referrer — join the
	// candidate frontier the rounds below scan. Fresh rows carry only
	// stage-1 labels; a semi label here comes from a restored checkpoint,
	// whose first Extend thereby rebuilds the LTF (the FQDNs of every
	// tracking row) and the frontier from the rows alone.
	pc := GetProj()
	defer PutProj(pc)
	chunkRows := st.ChunkRows()
	firstChunk := prev / chunkRows
	for ci := firstChunk; ci < st.NumChunks(); ci++ {
		ProjChunkAt(st, ci, pc)
		cls := pc.Class
		fq, flags, rf := pc.Wide(ColFQDN), pc.Wide(ColFlags), pc.Wide(ColRefFQDN)
		base := ci * chunkRows
		for i := max(prev-base, 0); i < len(cls); i++ {
			switch f := uint8(flags[i]); {
			case cls[i].IsTracking():
				ls.inLTF[fq[i]] = true
			case f&FlagHasArgs == 0:
				// Never convertible.
			case f&FlagKeyword != 0:
				cls[i] = ClassSemiKeyword
				ls.inLTF[fq[i]] = true
			case rf[i] != 0:
				ls.cand = append(ls.cand, candRow{g: base + i, fqdn: uint32(fq[i]), ref: uint32(rf[i])})
			}
		}
	}

	// Propagation rounds over the candidate frontier: label-uniform
	// referrer propagation against a per-round LTF snapshot, until a
	// round admits no new FQDN. The worker count cannot change the
	// outcome because each round reads a frozen inLTF; scanning only
	// candidates keeps each round O(frontier) instead of O(store),
	// which is what bounds epoch-commit latency on a long-lived
	// collector. Workers take equal contiguous slices of the frontier.
	// A candidate carries its FQDN and referrer, so a round touches the
	// store only to write the resident class column of a row that
	// converts.
	type roundOut struct {
		newLTF  []uint32
		flipped []int
	}
	for {
		outs := make([]roundOut, ls.workers)
		ls.pool.run(func(w int) {
			out := &outs[w]
			n := len(ls.cand)
			chunk, cls := -1, []Class(nil)
			for _, c := range ls.cand[w*n/ls.workers : (w+1)*n/ls.workers] {
				if !ls.inLTF[c.ref] {
					continue
				}
				if ci := c.g / chunkRows; ci != chunk {
					chunk, cls = ci, st.Classes(ci)
				}
				cls[c.g%chunkRows] = ClassSemiReferrer
				if !ls.inLTF[c.fqdn] {
					out.newLTF = append(out.newLTF, c.fqdn)
				}
				if c.g < prev {
					out.flipped = append(out.flipped, c.g)
				}
			}
		})
		changed := false
		for _, out := range outs {
			for _, f := range out.newLTF {
				if !ls.inLTF[f] {
					ls.inLTF[f] = true
					changed = true
				}
			}
			flipped = append(flipped, out.flipped...)
		}
		// Compact: drop the candidates that converted this round
		// (in-place, order-preserving).
		live := ls.cand[:0]
		for _, c := range ls.cand {
			if st.Classes(c.g / chunkRows)[c.g%chunkRows] == ClassClean {
				live = append(live, c)
			}
		}
		ls.cand = live
		if !changed {
			break
		}
	}
	ls.rows = total
	// Ascending order makes the report deterministic and lets the
	// caller walk flipped rows chunk by chunk with one ProjChunk.
	sort.Ints(flipped)
	return flipped
}
