package crossborder

import (
	"context"

	"crossborder/internal/classify"
	"crossborder/internal/experiments"
	"crossborder/internal/scenario"
	"crossborder/internal/scenario/pack"
)

// Options configures a reproduction run. New assembles it from
// functional options; an Option is any func(*Options), so callers may
// also set fields directly.
type Options struct {
	// Seed drives every random choice; the same seed reproduces the same
	// study byte for byte. Zero means seed 1.
	Seed int64
	// Scale multiplies all population sizes. 1.0 is the paper's scale
	// (350 users, 5,693 sites, ~7M third-party requests) and takes on
	// the order of a minute; 0.1 runs in a few seconds. Zero means 1.0.
	Scale float64
	// VisitsPerUser overrides the mean page visits per user (0 = the
	// paper's 219).
	VisitsPerUser int
	// Workers sets the simulation worker-pool size (0 = GOMAXPROCS);
	// any value produces the same dataset byte for byte.
	Workers int
	// Progress, when non-nil, receives per-phase pipeline events.
	Progress func(PhaseEvent)
	// RowStore selects the dataset row storage backend (the zero value
	// is the in-memory columnar store; see DiskRowStore).
	RowStore RowStore
	// Compress keeps the in-memory row store's sealed chunks as
	// compressed codec blocks (see WithCompression). Disk row stores
	// always compress.
	Compress bool
	// Pack names the scenario pack to apply ("" or "default" builds the
	// unmodified study; see WithPack and Packs).
	Pack string
}

// Experiment is one registered artifact of the paper's evaluation: id,
// title, paper section, dependencies, and the runner producing its
// Artifact. The registry holds all 19 measured artifacts plus the
// Table 9 transcription, in paper order.
type Experiment = experiments.Experiment

// Artifact is one computed table or figure: Render for the plain-text
// form, JSON and CSV for machine-readable encodings of the structured
// result, Value for the typed result itself.
type Artifact = experiments.Artifact

// Experiments returns the full experiment registry in paper order. It
// does not require a built Study — listing is free.
func Experiments() []Experiment { return experiments.All() }

// ExperimentIDs returns every registered experiment id in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// LookupExperiment finds a registered experiment by id,
// case-insensitively ("Fig7" and "fig7" both work).
func LookupExperiment(id string) (Experiment, bool) { return experiments.Get(id) }

// Study is a fully built reproduction: the synthetic world, the
// collected and classified dataset, the tracker inventory, the
// geolocation services, and the experiment registry over them. Through
// the embedded Suite it exposes both the typed per-experiment methods
// (Table1 ... Fig12) and the registry API (IDs, Get, Artifact, RunAll).
//
// A Study is safe for concurrent reads after New returns.
type Study struct {
	*experiments.Suite
}

// New builds the world and runs the browser-extension study as a staged
// pipeline: world/zones, simulation, classification, inventory,
// geolocation, sensitive identification. This is the expensive call;
// everything afterwards is aggregation.
//
// The context cancels the build between and inside phases — the
// simulation checks it before every page visit — returning ctx.Err()
// with all worker goroutines drained. WithProgress observes per-phase
// progress.
func New(ctx context.Context, opts ...Option) (*Study, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	params := scenario.Params{
		Seed:          o.Seed,
		Scale:         o.Scale,
		VisitsPerUser: o.VisitsPerUser,
		Workers:       o.Workers,
		Progress:      o.Progress,
	}
	if o.Pack != "" {
		var err error
		params, err = pack.Params(params, o.Pack)
		if err != nil {
			return nil, err
		}
	}
	rs := o.RowStore
	switch {
	case rs.disk:
		params.RowSink = func() (*classify.MemStore, error) {
			return classify.NewMemStoreSpilled(rs.dir, rs.chunkRows)
		}
	case o.Compress:
		params.RowSink = func() (*classify.MemStore, error) {
			return classify.NewMemStoreCompressed(rs.chunkRows), nil
		}
	case rs.chunkRows > 0:
		params.RowSink = func() (*classify.MemStore, error) {
			return classify.NewMemStoreChunked(rs.chunkRows), nil
		}
	}
	s, err := scenario.BuildContext(ctx, params)
	if err != nil {
		return nil, err
	}
	su := experiments.NewSuite(s)
	// The same WithProgress callback that observed the build phases also
	// receives per-experiment progress from long registry runners (phase
	// "table8"), so `reproduce -progress` covers the whole run.
	su.Progress = o.Progress
	return &Study{Suite: su}, nil
}

// Scenario exposes the underlying world for advanced use (the cmd tools
// and examples use it to reach the DNS substrate, inventory, and
// geolocation services directly).
func (st *Study) Scenario() *scenario.Scenario { return st.S }

// Close releases the dataset's row store. It matters for studies built
// with DiskRowStore — the spill file is freed — and is a no-op for the
// in-memory backend. The study must not be used afterwards.
func (st *Study) Close() error { return st.S.Dataset.Close() }

// RenderTable9 returns the paper's related-work comparison (Table 9),
// which is transcription rather than experiment.
func RenderTable9() string { return experiments.RenderTable9() }

// RenderAll runs every experiment through the registry and returns the
// rendered tables and figures in paper order.
func (st *Study) RenderAll() []string {
	out, err := st.RenderAllContext(context.Background())
	if err != nil {
		// Unreachable: the background context never cancels and the
		// registry runners only fail on cancellation.
		panic("crossborder: " + err.Error())
	}
	return out
}

// RenderAllContext is RenderAll with cancellation: it executes the
// registry's dependency graph (independent experiments in parallel) and
// renders the artifacts in paper order. For a fixed seed the output is
// byte-identical at any level of parallelism.
func (st *Study) RenderAllContext(ctx context.Context) ([]string, error) {
	arts, err := st.Suite.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(arts))
	for i, a := range arts {
		out[i] = a.Render()
	}
	return out, nil
}
