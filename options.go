package crossborder

import (
	"crossborder/internal/scenario"
	"crossborder/internal/scenario/pack"
)

// PhaseEvent is one progress report from the build pipeline: the phase
// name, items done/total, and elapsed time in the phase. Delivered to
// the WithProgress callback; events within a phase are monotone in Done.
type PhaseEvent = scenario.PhaseEvent

// Phase names one stage of the build pipeline (world, simulate,
// classify, inventory, geolocate, sensitive).
type Phase = scenario.Phase

// The build pipeline's stages, in execution order.
const (
	PhaseWorld     = scenario.PhaseWorld
	PhaseSimulate  = scenario.PhaseSimulate
	PhaseClassify  = scenario.PhaseClassify
	PhaseInventory = scenario.PhaseInventory
	PhaseGeolocate = scenario.PhaseGeolocate
	PhaseSensitive = scenario.PhaseSensitive
)

// Phases returns the canonical phase order of the build pipeline.
func Phases() []Phase { return scenario.Phases() }

// Option configures New. The zero configuration reproduces the paper at
// full scale with seed 1.
type Option func(*Options)

// WithSeed sets the world seed; the same seed reproduces the same study
// byte for byte. Zero means seed 1.
func WithSeed(seed int64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithScale multiplies all population sizes. 1.0 is the paper's scale
// (350 users, 5,693 sites, ~7M third-party requests); 0.1 runs in a few
// seconds. Zero means 1.0.
func WithScale(scale float64) Option {
	return func(o *Options) { o.Scale = scale }
}

// WithVisitsPerUser overrides the mean page visits per user (0 = the
// paper's 219).
func WithVisitsPerUser(n int) Option {
	return func(o *Options) { o.VisitsPerUser = n }
}

// WithWorkers sets the simulation worker-pool size (0 = GOMAXPROCS).
// Any value produces the same dataset byte for byte; 1 forces the
// sequential baseline.
func WithWorkers(n int) Option {
	return func(o *Options) { o.Workers = n }
}

// WithProgress registers a per-phase progress callback. Events carry
// the phase name, items done/total, and elapsed time; within a phase
// Done is monotone non-decreasing. Delivery is serialized, so fn need
// not be goroutine-safe. Progress never changes the built world.
func WithProgress(fn func(PhaseEvent)) Option {
	return func(o *Options) { o.Progress = fn }
}

// WithCompression chooses whether the in-memory row store seals: on
// encodes every chunk into a compressed codec block as it fills (only
// the open tail stays wide), off (the default) keeps all columns wide.
// DiskRowStore always seals and ignores it. The codec is lossless and invisible to every analysis: a
// compressed study renders byte-identically to a wide one. It trades
// a decode per chunk scan for keeping sealed chunks compressed, which
// is what long-running collectors want for cold epochs.
func WithCompression(on bool) Option {
	return func(o *Options) { o.Compress = on }
}

// RowStore selects where the classified dataset's row store keeps its
// sealed blocks. The zero value keeps everything in memory. The choice
// never changes the study: the classification phase streams the same
// merged row sequence into the store, and every experiment reads it
// through the same chunk-wise classify.MemStore methods.
type RowStore struct {
	disk      bool
	dir       string
	chunkRows int
}

// MemoryRowStore keeps the dataset's columns in memory (the default).
func MemoryRowStore() RowStore { return RowStore{} }

// DiskRowStore seals the dataset's column chunks into compressed codec
// blocks and writes them to a temporary file under dir ("" = the OS
// temp directory), keeping only the class column and the open tail
// chunk resident — the store for Scale >> 1 studies that outgrow
// memory. Call Study.Close when done to release the spill file.
func DiskRowStore(dir string) RowStore { return RowStore{disk: true, dir: dir} }

// WithChunkRows overrides the store's rows-per-chunk (0 = the default;
// exposed mainly for tests exercising multi-chunk behaviour at small
// scales).
func (rs RowStore) WithChunkRows(n int) RowStore {
	rs.chunkRows = n
	return rs
}

// WithRowStore selects the dataset row storage backend.
func WithRowStore(rs RowStore) Option {
	return func(o *Options) { o.RowStore = rs }
}

// WithPack applies a named scenario pack: a registered set of
// deterministic world mutations (multi-region GSLB routing, filter-list
// evasion, population mixes) layered on the base study. "" or "default"
// builds the unmodified study byte for byte. New returns an error for
// unknown names; Packs lists the valid ones.
func WithPack(name string) Option {
	return func(o *Options) { o.Pack = name }
}

// PackInfo describes one registered scenario pack.
type PackInfo struct {
	Name        string
	Description string
}

// Packs lists the registered scenario packs, "default" first.
func Packs() []PackInfo {
	var out []PackInfo
	for _, p := range pack.All() {
		out = append(out, PackInfo{Name: p.Name, Description: p.Description})
	}
	return out
}
