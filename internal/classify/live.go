package classify

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/webgraph"
)

// This file is the append-epoch side of the dataset engine: the pieces
// that let a long-running collector grow one Dataset across many merge
// rounds instead of building it in a single Finalize. Merger owns the
// id-assignment state (interner, country and publisher indexes) and,
// per merge source, the tables that remap the source's local ids, so
// replaying captures into it in the same order produces byte-for-byte
// the same Dataset. LiveSemi is the semi-stage fixpoint, the one engine
// for classification stages 2 and 3 on every route: it carries the LTF
// membership across epochs and, per epoch, classifies only the appended
// rows plus whatever older rows the new tracking FQDNs admit. The batch
// merge and the fan-in run it once over a whole dataset (RunSemiStages).

// Merger incrementally merges sources — per-worker capture shards or
// decoded shard exports — into one growing Dataset. It is the only code
// that turns a source's local ids (FQDN, RefFQDN, Country, Publisher)
// into dataset ids: each source gets a Source of remap tables, filled
// on first use, so dataset ids are assigned first-seen in merge order
// exactly as a sequential collector would have assigned them. Per
// capture, visits come first (publishers register on first visit),
// then rows in emit order. The batch Finalize path, the live ingestion
// collector and the fan-in share this code, which is what keeps a
// replayed upload stream byte-identical to the batch merge.
//
// Merger is single-writer: all Append calls must come from one goroutine
// at a time.
type Merger struct {
	ds     *Dataset
	pubIdx map[*webgraph.Publisher]int32
	shards map[*Shard]*Source
}

// NewMerger returns a merger streaming rows into sink, the store of
// the dataset it builds. internHint pre-sizes the dataset interner (0
// is fine for incremental use).
func NewMerger(start time.Time, sink *MemStore, internHint int) *Merger {
	return NewMergerOver(&Dataset{Store: sink, FQDNs: NewInternerSized(internHint), Start: start})
}

// Dataset returns the growing dataset. The pointer is stable across
// appends.
func (m *Merger) Dataset() *Dataset { return m.ds }

// Tables are the id tables a source's rows index: a local FQDN or
// referrer id names FQDNs[id], a local country id Countries[id], a
// local publisher id Publishers[id].
type Tables struct {
	FQDNs      []string
	Countries  []geodata.Country
	Publishers []*webgraph.Publisher
}

// Source is one merge source's local-id -> dataset-id remap inside a
// Merger. Each entry holds the dataset id plus one and stays zero until
// the local id is first used, so a row costs four slice indexes and
// only a first sighting re-interns a string or searches a table.
type Source struct {
	m       *Merger
	t       Tables
	fqdn    []uint32
	country []uint16
	pub     []int32
}

// Source returns the remap of a source with fixed tables (a decoded
// export's). It registers the source's publishers in table order,
// whether or not a row names them: an export's table holds every
// publisher its shard saw a visit to.
func (m *Merger) Source(t Tables) *Source {
	s := &Source{m: m}
	s.adopt(t)
	for i := range s.pub {
		s.pubID(int32(i))
	}
	return s
}

// adopt takes the source's current tables, growing the remap to their
// lengths. A shard's tables only grow, and the local ids already
// remapped keep their meaning, so filled entries stay valid.
func (s *Source) adopt(t Tables) {
	s.t = t
	s.fqdn = append(s.fqdn, make([]uint32, len(t.FQDNs)-len(s.fqdn))...)
	s.country = append(s.country, make([]uint16, len(t.Countries)-len(s.country))...)
	s.pub = append(s.pub, make([]int32, len(t.Publishers)-len(s.pub))...)
}

// Append remaps r's local ids to dataset ids and appends it to the
// dataset's store. It fails, appending nothing, on an id outside the
// source's tables or a country past the 256 that Row.Country holds.
func (m *Merger) Append(s *Source, r Row) error {
	if int(r.FQDN) >= len(s.fqdn) || int(r.RefFQDN) >= len(s.fqdn) ||
		int(r.Country) >= len(s.country) || uint32(r.Publisher) >= uint32(len(s.pub)) {
		return fmt.Errorf("classify: row ids (fqdn %d, referrer %d, country %d, publisher %d) outside the source's %d-FQDN, %d-country, %d-publisher tables",
			r.FQDN, r.RefFQDN, r.Country, r.Publisher, len(s.fqdn), len(s.country), len(s.pub))
	}
	if s.country[r.Country] == 0 {
		cc := s.t.Countries[r.Country]
		id := slices.Index(m.ds.Countries, cc)
		if id < 0 {
			if id = len(m.ds.Countries); id > 255 {
				return fmt.Errorf("classify: merged country table exceeds 256 entries")
			}
			m.ds.Countries = append(m.ds.Countries, cc)
		}
		s.country[r.Country] = uint16(id) + 1
	}
	r.Country = uint8(s.country[r.Country] - 1)
	r.FQDN, r.RefFQDN = s.fqdnID(r.FQDN), s.fqdnID(r.RefFQDN)
	r.Publisher = s.pubID(r.Publisher)
	m.ds.Store.Append(r)
	return nil
}

func (s *Source) fqdnID(id uint32) uint32 {
	if v := s.fqdn[id]; v != 0 {
		return v - 1
	}
	v := s.m.ds.FQDNs.ID(s.t.FQDNs[id])
	s.fqdn[id] = v + 1
	return v
}

func (s *Source) pubID(id int32) int32 {
	if v := s.pub[id]; v != 0 {
		return v - 1
	}
	m, p := s.m, s.t.Publishers[id]
	v, ok := m.pubIdx[p]
	if !ok {
		v = int32(len(m.ds.Publishers))
		m.pubIdx[p] = v
		m.ds.Publishers = append(m.ds.Publishers, p)
	}
	s.pub[id] = v + 1
	return v
}

// AppendCapture replays capture idx of sh into the dataset through the
// shard's Source: its visits register publishers in first-visit order,
// its rows remap and append to the sink. A shard's rows index its own
// tables, so only a world of more than 256 countries can fail here; it
// panics then rather than alias two countries.
func (m *Merger) AppendCapture(sh *Shard, idx int) {
	s := m.shards[sh]
	if s == nil {
		s = &Source{m: m}
		m.shards[sh] = s
	}
	s.adopt(Tables{FQDNs: sh.interner.strs, Countries: sh.countries, Publishers: sh.pubs})
	cap := &sh.caps[idx]
	for _, pid := range cap.visits {
		s.pubID(pid)
	}
	m.ds.Visits += len(cap.visits)
	// A row's publisher is normally registered by the page visit above
	// (always true for the batch pipeline). An uploaded stream can
	// legally carry requests whose visit was never uploaded; Append
	// registers the publisher then, so the row resolves to a real id.
	for _, r := range cap.rows {
		if err := m.Append(s, r); err != nil {
			panic(err)
		}
	}
}

// ResetCaptures drops the buffered captures so the shard can collect the
// next epoch, keeping the interner, the publisher/country indexes and
// the per-host and per-publisher stage-1 state, none of which grows
// with paths or pages. The shard-local ids stay stable because the
// interner and indexes are never reset, which is what lets a Merger
// keep the shard's remap tables across epochs.
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
