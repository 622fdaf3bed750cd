package ingest

import (
	"sync"

	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/experiments"
	"crossborder/internal/geodata"
	"crossborder/internal/scenario"
	"crossborder/internal/trackerdb"
)

// Snapshot is one immutable epoch boundary of the live dataset: the
// frozen row store and the interner/index tables as of the epoch, plus
// three views derived from those rows on first use and then kept: the
// Table 1 stats, the flow maps, and a full experiments Suite over a
// scenario whose Dataset and Inventory are the snapshot's.
// Safe for concurrent use; the collector never mutates a published
// snapshot.
type Snapshot struct {
	epoch     int
	ds        *classify.Dataset
	footprint StoreFootprint
	history   []EpochStat
	world     *scenario.Scenario

	table1Once sync.Once
	table1     classify.DatasetStats

	flowsOnce sync.Once
	flows     []*core.Analysis // truth, IPmap, MaxMind

	once  sync.Once
	suite *experiments.Suite
}

// StoreFootprint is the store-accounting block of /v1/stats: how much
// memory the row store occupies (resident wide columns vs compressed
// sealed blocks) against the raw-equivalent size of the same rows, plus
// the durability gauges — journal bytes not yet covered by a checkpoint
// and the outcome of the most recent checkpoint, with the bytes it
// wrote in LastCheckpointBytes: its checkpoint file plus the block
// segment of the chunks sealed since the checkpoint before (earlier
// segments are never rewritten). Per-epoch row
// counts live in the epochs history alongside it. The WAL fields are
// zero on a snapshot from a memory-only collector or a merged fan-in
// view; the HTTP layer overlays them live for durable collectors.
type StoreFootprint struct {
	Rows                int    `json:"rows"`
	SealedChunks        int    `json:"sealed_chunks"`
	ResidentBytes       int64  `json:"resident_bytes"`
	CompressedBytes     int64  `json:"compressed_bytes"`
	RawEquivalentBytes  int64  `json:"raw_equivalent_bytes"`
	WALUncoveredBytes   int64  `json:"wal_uncovered_bytes"`
	LastCheckpointBytes int64  `json:"last_checkpoint_bytes"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// Per-column-encoding census of the sealed blocks: which schemes
	// cover how many column-rows and at what encoded cost, plus the
	// bytes spent on zone-map sections and the column-rows whose
	// payload additionally went through the LZ4 wrapper.
	PerScheme     []SchemeFootprint `json:"per_scheme,omitempty"`
	LZ4ColumnRows int64             `json:"lz4_column_rows,omitempty"`
	ZoneMapBytes  int64             `json:"zone_map_bytes,omitempty"`
}

// SchemeFootprint is one encoding scheme's share of the sealed blocks.
type SchemeFootprint struct {
	Scheme       string `json:"scheme"`
	ColumnRows   int64  `json:"column_rows"`
	EncodedBytes int64  `json:"encoded_bytes"`
}

// footprintOf converts the store's accounting to the /v1/stats block.
func footprintOf(st *classify.MemStore) StoreFootprint {
	fp := st.Footprint()
	out := StoreFootprint{
		Rows:               fp.Rows,
		SealedChunks:       fp.SealedChunks,
		ResidentBytes:      fp.ResidentBytes,
		CompressedBytes:    fp.CompressedBytes,
		RawEquivalentBytes: fp.RawEquivalentBytes(),
		LZ4ColumnRows:      fp.Breakdown.LZ4Rows,
		ZoneMapBytes:       fp.Breakdown.ZoneMapBytes,
	}
	for s, rows := range fp.Breakdown.SchemeRows {
		if rows == 0 {
			continue
		}
		out.PerScheme = append(out.PerScheme, SchemeFootprint{
			Scheme:       classify.SchemeName(s),
			ColumnRows:   rows,
			EncodedBytes: fp.Breakdown.SchemeBytes[s],
		})
	}
	return out
}

// Footprint returns the live store's memory accounting as of this
// snapshot (the snapshot itself shares that storage by reference).
func (s *Snapshot) Footprint() StoreFootprint { return s.footprint }

// Epoch returns the epoch number (0 = nothing committed yet).
func (s *Snapshot) Epoch() int { return s.epoch }

// History returns the commit log up to this snapshot. The slice is an
// immutable prefix share; callers must not mutate it.
func (s *Snapshot) History() []EpochStat { return s.history }

// Rows returns the dataset row count at the epoch boundary.
func (s *Snapshot) Rows() int { return s.ds.Len() }

// Dataset returns the frozen dataset.
func (s *Snapshot) Dataset() *classify.Dataset { return s.ds }

// Stats returns the Table 1 summary: classify.ComputeStats over the
// frozen Dataset(), derived on first call and kept for the snapshot's
// lifetime.
func (s *Snapshot) Stats() classify.DatasetStats {
	s.table1Once.Do(func() { s.table1 = classify.ComputeStats(s.ds) })
	return s.table1
}

// flowMaps returns the truth, IPmap and MaxMind flow maps of the
// snapshot's rows, in that order: one core.Join over the frozen
// Dataset(), run on first use and then kept. The maps are derived per
// snapshot rather than maintained per epoch, stored in checkpoints and
// exports, or merged by the fan-in: one warm join over every row costs
// a few milliseconds, only a snapshot that is queried pays it, and a
// view derived from the rows cannot disagree with them. The snapshot's
// Suite reuses these analyses, so a snapshot joins at most once,
// whether /v1/stats or a flow artifact asks first.
func (s *Snapshot) flowMaps() []*core.Analysis {
	s.flowsOnce.Do(func() { s.flows = core.Join(s.ds, s.world.FlowServices()) })
	return s.flows
}

// TruthAnalysis returns the ground-truth flow map (see flowMaps).
func (s *Snapshot) TruthAnalysis() *core.Analysis { return s.flowMaps()[0] }

// IPMapAnalysis returns the IPmap flow map, the paper's headline
// configuration (see flowMaps).
func (s *Snapshot) IPMapAnalysis() *core.Analysis { return s.flowMaps()[1] }

// MaxMindAnalysis returns the MaxMind flow map (see flowMaps).
func (s *Snapshot) MaxMindAnalysis() *core.Analysis { return s.flowMaps()[2] }

// Suite returns the experiments registry over this snapshot, built on
// first use: the tracker inventory compiles from the frozen dataset,
// and the three geolocation joins are the snapshot's own flow maps.
// The suite caches each artifact, so repeated queries of one snapshot
// pay each experiment once.
func (s *Snapshot) Suite() *experiments.Suite {
	s.once.Do(func() {
		sc := *s.world
		sc.Dataset = s.ds
		sc.Inventory = trackerdb.Compile(s.ds, s.world.PDNS)
		f := s.flowMaps()
		s.suite = experiments.NewSuiteSeeded(&sc, f[0], f[1], f[2])
	})
	return s.suite
}

// buildSnapshot freezes the live state into a Snapshot. Called with
// commitMu held (and once from NewCollector before the collector is
// shared). prevRows and dirty say which chunks changed since prev (see
// classify.MemStore.Freeze).
func (c *Collector) buildSnapshot(prev *Snapshot, prevRows int, dirty map[int]struct{}) *Snapshot {
	st := c.store
	live := c.merger.Dataset()
	var prevStore *classify.MemStore
	if prev != nil {
		prevStore = prev.ds.Store
	}

	// The interner clone is cached: most steady-state epochs intern no
	// new FQDN (the vocabulary comes from the finite synthetic graph),
	// so the previous snapshot's clone is reusable whenever the length
	// is unchanged — the prefix of an interner is immutable.
	if c.internClone == nil || live.FQDNs.Len() != c.internCloneLen {
		c.internClone = live.FQDNs.Clone()
		c.internCloneLen = live.FQDNs.Len()
	}
	nPubs := len(live.Publishers)
	ds := &classify.Dataset{
		Store:      st.Freeze(prevStore, prevRows, dirty),
		FQDNs:      c.internClone,
		Countries:  append([]geodata.Country(nil), live.Countries...),
		Publishers: live.Publishers[:nPubs:nPubs],
		Visits:     live.Visits,
		Start:      live.Start,
	}
	return &Snapshot{
		epoch:     len(c.epochs),
		history:   c.epochs[:len(c.epochs):len(c.epochs)],
		ds:        ds,
		footprint: footprintOf(st),
		world:     c.world,
	}
}
