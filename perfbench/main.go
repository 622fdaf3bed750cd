// Command perfbench is the repository's end-to-end benchmark. One
// process generates the load for one workload and checks every answer
// against a batch study at the same seed:
//
//	batch    crossborder.New, then RenderAll
//	ingest   a capture replayed over HTTP into one durable collector
//	cluster  a capture replayed into four ring-partitioned shards behind
//	         a polling fan-in
//
// Usage, from the repository root:
//
//	go run ./perfbench --workload ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// drives the same inputs through each layer's public calls and reports
// the per-layer ledger. --growth prints each layer's growth exponent
// over three scales. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A wrong answer
// exits 1 without that line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"crossborder"
)

// workloadSizes are each workload's inputs, sized so that one pass takes
// a few seconds and a 20-second run holds several. Ingest is the
// smallest because its checkpoints re-encode the whole store, so its
// pass time grows faster than its input.
var workloadSizes = map[string]size{
	"batch":   {Scale: 0.05, Visits: 100},
	"ingest":  {Scale: 0.05, Visits: 60},
	"cluster": {Scale: 0.05, Visits: 80},
}

// Per-layer metrics every workload's traced run reports (BENCHMARK.json
// lists the same names). Layer times that only one route has — the
// collector's decode, accept, commit, checkpoint, query and recovery,
// the fan-in's export and merge, the batch classify phase and
// core.Analyze — are printed in the ledger above the JSON line.
var (
	perLayerTimes = append([]string{
		"traced_wall_s", "unattributed_s",
		"scenario.world_s", "scenario.simulate_s", "scenario.geolocate_s",
		"scenario.sensitive_s", "scenario.inventory_s", "experiments.render_s",
	}, experimentMetrics()...)
	perLayerCounts = []string{
		"classify.rows", "store.resident_bytes",
		"ingest.commits", "ingest.flips", "ingest.checkpoints", "ingest.checkpoint_bytes",
		"ingest.export_bytes", "wal.records_replayed", "cluster.refreshes",
	}
)

func experimentMetrics() []string {
	var out []string
	for _, id := range crossborder.ExperimentIDs() {
		out = append(out, "experiments."+id+"_s")
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	size     size
	cacheDir string
	dataDir  string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cfg     config
		trace   int
		growth  bool
		workDir string
	)
	flag.StringVar(&cfg.workload, "workload", "", "batch | ingest | cluster")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = report the per-layer ledger instead of the end-to-end metrics")
	flag.BoolVar(&growth, "growth", false, "print each layer's growth exponent over scales 0.02, 0.05 and 0.2")
	flag.StringVar(&workDir, "work-dir", ".bench_build", "directory for data dirs and cached references")
	flag.Parse()

	var ok bool
	if cfg.size, ok = workloadSizes[cfg.workload]; !ok && !growth {
		return fmt.Errorf("unknown --workload %q (batch, ingest or cluster)", cfg.workload)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.cacheDir = filepath.Join(workDir, "golden")
	cfg.dataDir = filepath.Join(workDir, "data", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(filepath.Dir(cfg.dataDir), 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dataDir)

	m := collectMeta(workDir)
	m.Workload, m.Seed, m.Scale, m.Visits, m.Seconds, m.Trace = cfg.workload, cfg.seed, cfg.size.Scale, cfg.size.Visits, cfg.seconds, trace
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Printf("meta %s\n", raw)

	ctx := context.Background()
	if growth {
		return runGrowth(ctx, cfg)
	}
	var res result
	if trace == 1 {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runUntraced(ctx, cfg)
	}
	if err != nil {
		return err
	}
	raw, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", raw)
	return nil
}

// reference returns the workload's golden artifact digests. The batch
// workload is checked against a study on the compressed store (the
// projection scan path), the live workloads against the default study.
func (cfg config) reference(ctx context.Context) ([]string, error) {
	if cfg.workload == "batch" {
		return reference(ctx, cfg.cacheDir, "compressed", cfg.seed, cfg.size, crossborder.WithCompression(true))
	}
	return reference(ctx, cfg.cacheDir, "batch", cfg.seed, cfg.size)
}

// pass runs one untraced pass of the workload.
func (cfg config) pass(ctx context.Context, in *inputs, ref []string, first bool) (passResult, error) {
	switch cfg.workload {
	case "batch":
		return batchPass(ctx, in, ref)
	case "ingest":
		return ingestPass(ctx, in, ref, cfg.dataDir, first)
	default:
		return clusterPass(ctx, in, ref)
	}
}

// setupRuns is how many times a run builds its inputs; setup_s is the
// median, so that one slow build does not move it.
const setupRuns = 5

// setup builds the inputs setupRuns times and returns the last build
// with the median set-up time.
func (cfg config) setup(ctx context.Context) (*inputs, float64, error) {
	var (
		in    *inputs
		times []float64
		err   error
	)
	for k := 0; k < setupRuns; k++ {
		in = nil // let the previous build go before the next one
		t := time.Now()
		if in, err = buildInputs(ctx, cfg.seed, cfg.size); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return in, median(times), nil
}

func runUntraced(ctx context.Context, cfg config) (result, error) {
	// Probes before set-up and before every pass tell how fast the
	// machine ran during this run; see probe.
	probes := []float64{probe().Seconds(), probe().Seconds(), probe().Seconds()}
	in, setupS, err := cfg.setup(ctx)
	if err != nil {
		return result{}, err
	}
	ref, err := cfg.reference(ctx)
	if err != nil {
		return result{}, err
	}
	// A warm-up pass lets the heap, the GC pacer and the page cache
	// settle before timing; the first pass runs about half as fast
	// otherwise. Its answers are checked, its figures are not reported.
	if _, err := cfg.pass(ctx, in, ref, true); err != nil {
		return result{}, err
	}
	live := cfg.workload != "batch"
	var (
		passes            []passResult
		uploadMs, queryMs []float64
		attempted, failed int64
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for {
		probes = append(probes, probe().Seconds())
		r, err := cfg.pass(ctx, in, ref, false)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, r)
		fmt.Printf("pass %d: events_per_s=%.1f answer_s=%.4f retained_heap_mb=%.2f\n",
			len(passes), float64(r.events)/r.intake.Seconds(), r.answer.Seconds(), r.retainedMB)
		uploadMs = append(uploadMs, r.uploadMs...)
		queryMs = append(queryMs, r.queryMs...)
		attempted += r.attempted
		failed += r.failed
		if time.Now().After(deadline) && (!live || len(uploadMs) >= 1000 && len(queryMs) >= 100) {
			break
		}
	}
	med := func(f func(passResult) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	eps := med(func(p passResult) float64 { return float64(p.events) / p.intake.Seconds() })
	answer := med(func(p passResult) float64 { return p.answer.Seconds() })
	heap := med(func(p passResult) float64 { return p.retainedMB })
	slow := slowdown(probes)

	fmt.Printf("workload %s: seed %d, scale %g, %d visits/user, %d events/pass, %d passes in %ds after a warm-up pass\n",
		cfg.workload, cfg.seed, cfg.size.Scale, cfg.size.Visits, in.nEvents, len(passes), cfg.seconds)
	row := func(name, unit string, v float64, note string) {
		fmt.Printf("  %-18s %14.4f %-9s %s\n", name, v, unit, note)
	}
	fmt.Printf("  slowdown %.4f: probe median %.4f s over %d probes, reference %v; "+
		"the rows below are as measured, the result line scales the timed ones to the reference\n",
		slow, median(probes), len(probes), probeRef)
	row("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups (world, capture, batches)", setupRuns))
	row("events_per_s", "events/s", eps, "median over passes: events in / intake time")
	row("answer_s", "s", answer, "median over passes: last event accepted -> 20 artifacts readable")
	row("retained_heap_mb", "MB", heap, "median over passes: live heap after the pass minus after set-up")
	switch cfg.workload {
	case "batch":
		row("batch_s", "s", med(func(p passResult) float64 { return (p.intake + p.answer).Seconds() }), "median over passes: crossborder.New -> RenderAll done")
	case "ingest":
		row("recover_s", "s", med(func(p passResult) float64 { return p.recover.Seconds() }), "median over passes: restart on the data dir -> Ready")
	case "cluster":
		row("fresh_s", "s", med(func(p passResult) float64 { return p.fresh.Seconds() }), "median over passes: last ack -> FlushAll, fan-in round, publish")
	}
	if live {
		row("ingest_eps", "events/s", eps, "accepted events / first upload sent -> last upload acked")
		row("upload_p50_ms", "ms", quantile(uploadMs, 0.5), fmt.Sprintf("n=%d uploads", len(uploadMs)))
		row("upload_p99_ms", "ms", quantile(uploadMs, 0.99), fmt.Sprintf("n=%d, %d beyond", len(uploadMs), len(uploadMs)/100))
		row("query_p50_ms", "ms", quantile(queryMs, 0.5), fmt.Sprintf("n=%d queries at %d/s, timed from due", len(queryMs), readerRate))
		row("query_p90_ms", "ms", quantile(queryMs, 0.9), fmt.Sprintf("n=%d, %d beyond", len(queryMs), len(queryMs)/10))
		row("reader_late_ms", "ms", maxOf(passes, func(p passResult) float64 { return p.lateMs }), "most the reader started behind schedule")
	}
	row("failed_frac", "ratio", float64(failed)/float64(attempted), fmt.Sprintf("%d failed of %d attempted", failed, attempted))

	return result{
		Correct: true, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"setup_s":          {setupS / slow, "s"},
			"events_per_s":     {eps * slow, "events/s"},
			"answer_s":         {answer / slow, "s"},
			"retained_heap_mb": {heap, "MB"},
		},
	}, nil
}

func maxOf(ps []passResult, f func(passResult) float64) float64 {
	var m float64
	for _, p := range ps {
		m = max(m, f(p))
	}
	return m
}

// trace runs one traced pass of the workload. The batch ledger starts
// after set-up; the live ledgers include building their inputs, which
// on the live route is the collector's start-up and the clients'
// browsing.
func (cfg config) trace(ctx context.Context, in *inputs, ref []string) (*Ledger, error) {
	switch cfg.workload {
	case "batch":
		return batchTrace(ctx, in, ref)
	case "ingest":
		return ingestTrace(ctx, cfg.seed, cfg.size, ref, cfg.dataDir)
	default:
		return clusterTrace(ctx, cfg.seed, cfg.size, ref)
	}
}

func runTraced(ctx context.Context, cfg config) (result, error) {
	t := time.Now()
	in, err := buildInputs(ctx, cfg.seed, cfg.size)
	if err != nil {
		return result{}, err
	}
	setupS := time.Since(t).Seconds()
	ref, err := cfg.reference(ctx)
	if err != nil {
		return result{}, err
	}
	// One untraced pass, for the comparison line below.
	p, err := cfg.pass(ctx, in, ref, false)
	if err != nil {
		return result{}, err
	}
	untraced := (p.intake + p.answer + p.recover).Seconds()
	if cfg.workload != "batch" {
		untraced += setupS
		in = nil // the live traced passes build their own inputs
	}

	var ledgers []*Ledger
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(ledgers) == 0 || time.Now().Before(deadline) {
		l, err := cfg.trace(ctx, in, ref)
		if err != nil {
			return result{}, err
		}
		ledgers = append(ledgers, l)
	}
	sort.Slice(ledgers, func(i, j int) bool { return ledgers[i].Wall() < ledgers[j].Wall() })
	l := ledgers[len(ledgers)/2]
	l.Print(os.Stdout, cfg.workload)
	fmt.Printf("traced_wall_s %.4f (median of %d traced passes) beside untraced end-to-end %.4f s; "+
		"the gap is tracing plus the HTTP and parallelism the traced run bypasses\n",
		l.Wall().Seconds(), len(ledgers), untraced)

	metrics := make(map[string]metric, len(perLayerTimes)+len(perLayerCounts))
	for _, name := range perLayerTimes {
		metrics[name] = metric{l.Seconds(name), "s"}
	}
	metrics["traced_wall_s"] = metric{l.Wall().Seconds(), "s"}
	metrics["unattributed_s"] = metric{l.Unattributed().Seconds(), "s"}
	for _, name := range perLayerCounts {
		unit := "count"
		if strings.HasSuffix(name, "_bytes") {
			unit = "bytes"
		}
		metrics[name] = metric{float64(l.counts[name]), unit}
	}
	return result{Correct: true, Attempted: p.attempted + int64(len(ledgers)), Failed: p.failed, Metrics: metrics}, nil
}

// runGrowth traces batch and ingest at three scales and prints each
// layer's growth exponent against the dataset's row count: about 1 for
// a layer whose cost follows the data, 0 for a flat one, above 1 for
// one whose cost grows faster than the data.
func runGrowth(ctx context.Context, cfg config) error {
	scales := []float64{0.02, 0.05, 0.2}
	for _, wl := range []string{"batch", "ingest"} {
		c := cfg
		c.workload = wl
		c.size.Visits = workloadSizes[wl].Visits
		secs := make(map[string][]float64)
		var rows []float64
		var order []string
		for _, sc := range scales {
			c.size.Scale = sc
			var in *inputs
			if wl == "batch" {
				var err error
				if in, err = buildInputs(ctx, c.seed, c.size); err != nil {
					return err
				}
			}
			l, err := c.trace(ctx, in, nil)
			if err != nil {
				return err
			}
			rows = append(rows, float64(l.counts["classify.rows"]))
			for _, name := range l.order {
				if _, ok := secs[name]; !ok {
					order = append(order, name)
				}
				secs[name] = append(secs[name], l.Seconds(name))
			}
			secs["traced_wall_s"] = append(secs["traced_wall_s"], l.Wall().Seconds())
		}
		order = append(order, "traced_wall_s")
		fmt.Printf("growth %s (visits %d): scales %v, rows %v\n", wl, c.size.Visits, scales, rows)
		fmt.Printf("  %-28s %10s %10s %10s %9s\n", "layer", "s@0.02", "s@0.05", "s@0.2", "exp/rows")
		for _, name := range order {
			v := secs[name]
			if len(v) != len(scales) {
				continue
			}
			fmt.Printf("  %-28s %10.4f %10.4f %10.4f %9.2f\n", name, v[0], v[1], v[2], growthExponent(rows, v))
		}
	}
	return nil
}
