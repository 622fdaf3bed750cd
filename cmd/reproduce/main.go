// Command reproduce runs the full reproduction of "Tracing Cross Border
// Web Tracking" (IMC 2018) and prints every table and figure of the
// paper's evaluation, driven entirely by the experiment registry.
//
// Usage:
//
//	reproduce [-scale 0.25] [-seed 1] [-visits 219] [-workers 0]
//	          [-diskstore] [-compress] [-pack routing]
//	          [-only fig7,table8] [-json|-csv] [-progress]
//	reproduce -list
//	reproduce -list-packs
//
// -list prints the registry (id, paper section, title) without building
// anything. -only takes one or more comma-separated, case-insensitive
// experiment ids; a bad id prints the valid ids. -json and -csv switch
// the output to the machine-readable artifact encodings. -diskstore
// spills the dataset's column chunks to a temp file instead of holding
// them in memory — the backend for scales far beyond 1.0 — and changes
// no output byte; the disk store always compresses its chunks.
// -compress keeps the in-memory store's sealed chunks as compressed
// codec blocks; like the store choice it never changes the output.
// Ctrl-C cancels the build cleanly mid-phase.
//
// At -scale 1 the run simulates the paper's full 7M-request study and
// takes on the order of a minute; smaller scales keep every shape and
// finish in seconds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"crossborder"
)

func main() {
	scale := flag.Float64("scale", 0.25, "population scale (1.0 = the paper's 350 users / 7.2M requests)")
	seed := flag.Int64("seed", 1, "world seed; same seed, same study")
	visits := flag.Int("visits", 0, "mean page visits per user (0 = the paper's 219)")
	workers := flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS; output is identical at any value)")
	diskStore := flag.Bool("diskstore", false, "spill the dataset's row store to a temp file (identical output; bounds memory at large -scale)")
	compress := flag.Bool("compress", false, "keep the in-memory row store's sealed chunks compressed (-diskstore always compresses); identical output either way")
	only := flag.String("only", "", "comma-separated experiment ids to render (e.g. fig7,table8; case-insensitive); empty = all")
	packName := flag.String("pack", "", "scenario pack to apply (see -list-packs; empty or \"default\" = the unmodified study)")
	listPacks := flag.Bool("list-packs", false, "print the registered scenario packs and exit")
	list := flag.Bool("list", false, "print the experiment registry (id, section, title) and exit")
	asJSON := flag.Bool("json", false, "emit the structured results as one JSON array")
	asCSV := flag.Bool("csv", false, "emit the structured results as flattened CSV rows")
	progress := flag.Bool("progress", false, "report per-phase build progress on stderr")
	flag.Parse()

	if *list {
		for _, e := range crossborder.Experiments() {
			fmt.Printf("%-8s %-6s %s\n", e.ID, e.Section, e.Title)
		}
		return
	}
	if *listPacks {
		for _, p := range crossborder.Packs() {
			fmt.Printf("%-12s %s\n", p.Name, p.Description)
		}
		return
	}
	if *asJSON && *asCSV {
		fmt.Fprintln(os.Stderr, "-json and -csv are mutually exclusive")
		os.Exit(2)
	}

	// Resolve the requested ids through the registry before paying for
	// the build, so a typo fails fast with the valid id list.
	ids := crossborder.ExperimentIDs()
	if *only != "" {
		ids = nil
		seen := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			exp, ok := crossborder.LookupExperiment(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; valid ids:\n", name)
				for _, e := range crossborder.Experiments() {
					fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.ID, e.Title)
				}
				os.Exit(2)
			}
			if seen[exp.ID] {
				continue
			}
			seen[exp.ID] = true
			ids = append(ids, exp.ID)
		}
		if len(ids) == 0 {
			fmt.Fprintln(os.Stderr, "-only given but no experiment ids parsed")
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []crossborder.Option{
		crossborder.WithSeed(*seed),
		crossborder.WithScale(*scale),
		crossborder.WithVisitsPerUser(*visits),
		crossborder.WithWorkers(*workers),
	}
	if *packName != "" {
		opts = append(opts, crossborder.WithPack(*packName))
	}
	if *diskStore {
		opts = append(opts, crossborder.WithRowStore(crossborder.DiskRowStore("")))
	}
	if *compress {
		opts = append(opts, crossborder.WithCompression(true))
	}
	if *progress {
		opts = append(opts, crossborder.WithProgress(func(ev crossborder.PhaseEvent) {
			fmt.Fprintf(os.Stderr, "\r%-10s %d/%d (%v)   ",
				ev.Phase, ev.Done, ev.Total, ev.Elapsed.Round(time.Millisecond))
			if ev.Done == ev.Total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building scenario (scale=%.2f seed=%d)...\n", *scale, *seed)
	study, err := crossborder.New(ctx, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "build aborted: %v\n", err)
		os.Exit(1)
	}
	defer study.Close()
	fmt.Fprintf(os.Stderr, "scenario ready in %v; running experiments\n", time.Since(start).Round(time.Millisecond))

	// A full run executes the whole dependency graph in parallel up
	// front (Precompute + concurrent experiments); the per-Suite cache
	// then makes the sequential emit loops below free.
	if *only == "" {
		if _, err := study.RunAll(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "run aborted: %v\n", err)
			os.Exit(1)
		}
	}

	switch {
	case *asJSON:
		err = emitJSON(ctx, study, ids)
	case *asCSV:
		err = emitCSV(ctx, study, ids)
	default:
		err = emitText(ctx, study, ids, *only == "")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "run aborted: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
}

// emitText renders the artifacts as plain text, with the separator
// rule between them when the full evaluation runs.
func emitText(ctx context.Context, study *crossborder.Study, ids []string, separators bool) error {
	for _, id := range ids {
		a, err := study.Artifact(ctx, id)
		if err != nil {
			return err
		}
		fmt.Println(a.Render())
		if separators {
			fmt.Println(strings.Repeat("=", 78))
		}
	}
	return nil
}

// emitJSON prints one JSON array with an object per experiment: id,
// title, section, and the structured result.
func emitJSON(ctx context.Context, study *crossborder.Study, ids []string) error {
	type entry struct {
		ID      string          `json:"id"`
		Title   string          `json:"title"`
		Section string          `json:"section"`
		Result  json.RawMessage `json:"result"`
	}
	out := make([]entry, 0, len(ids))
	for _, id := range ids {
		a, err := study.Artifact(ctx, id)
		if err != nil {
			return err
		}
		raw, err := a.JSON()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		exp, _ := crossborder.LookupExperiment(id)
		out = append(out, entry{ID: exp.ID, Title: exp.Title, Section: exp.Section, Result: raw})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// emitCSV prints every artifact's flattened rows as one CSV stream with
// an experiment column: "experiment,path,value".
func emitCSV(ctx context.Context, study *crossborder.Study, ids []string) error {
	fmt.Println("experiment,path,value")
	for _, id := range ids {
		a, err := study.Artifact(ctx, id)
		if err != nil {
			return err
		}
		raw, err := a.CSV()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		for _, line := range lines[1:] { // drop the per-artifact header
			fmt.Printf("%s,%s\n", id, line)
		}
	}
	return nil
}
