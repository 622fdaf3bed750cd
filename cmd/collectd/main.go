// Command collectd is the live collection daemon: the crowdsourced
// measurement backend the paper's browser extensions uploaded to,
// serving the reproduction's artifacts from a continuously growing
// dataset instead of a one-shot batch build.
//
// On startup it builds the synthetic world (graph, DNS zones, filter
// lists, geolocation services — everything except the browsing study)
// for the given -seed/-scale, then accepts event uploads and answers
// queries:
//
//	POST /v1/upload           batched events (NDJSON or binary framing)
//	POST /v1/flush            force an epoch commit (+ checkpoint with -data)
//	GET  /v1/experiments      registry ids
//	GET  /v1/experiments/{id} artifact over the latest epoch snapshot
//	GET  /v1/stats            aggregates of the latest snapshot
//	GET  /healthz, /readyz    liveness, readiness (recovery progress)
//	GET  /metrics             Prometheus counters
//
// Uploads carry per-user sequence numbers; re-sent batches deduplicate,
// so clients retry freely (at-least-once). Accepted events commit as an
// epoch every -epoch events: the batch is classified through -workers
// shards, merged into the columnar store, and the semi-stage fixpoint
// extends incrementally. Queries read immutable epoch snapshots, which
// derive the flow-map/stats aggregates from their rows on first use,
// and never block ingestion.
//
// With -data the daemon is durable: accepted batches journal to a
// write-ahead log under the data dir (fsync policy via -wal-sync),
// /v1/flush and graceful shutdown write epoch checkpoints, and a
// restart — even after kill -9 — recovers the exact pre-crash state by
// loading the newest checkpoint and replaying the WAL tail. The HTTP
// listener is up during recovery: /healthz says alive, /readyz reports
// replay progress, uploads get 503 + Retry-After until ready.
//
// The daemon protects itself under overload: at most -max-inflight
// uploads are admitted concurrently (excess answers 429 + Retry-After
// immediately — retrying clients back off instead of piling onto the
// ingest lock), request bodies are capped at -max-upload-bytes, each
// upload gets a -upload-timeout connection deadline so a trickling
// client cannot pin a slot, and the listener itself carries
// -read-header-timeout / -idle-timeout slowloris guards.
//
// SIGTERM/SIGINT shut down gracefully: new uploads 503, in-flight
// requests drain, a final epoch + checkpoint is written, exit 0.
// -checkpoint-bytes additionally cuts checkpoints mid-run whenever the
// WAL grows past the threshold, bounding recovery time.
//
// With -node and -registry the daemon joins a cluster: it heartbeats
// its name, advertised address, and epoch high-water mark into the
// registries (normally the mergerd fan-in tier), owns the ring
// partition of users that hash to its name, and exports its committed
// state at GET /v1/snapshot for the merge tier to pull.
//
// Replay a simulated study against it with:
//
//	collectd -scale 0.1 -addr :8477 -data /var/lib/collectd
//	crawlsim -scale 0.1 -replay -target http://localhost:8477
//
// The replayed artifacts are byte-identical to `reproduce -scale 0.1`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crossborder/internal/cluster"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

func main() {
	addr := flag.String("addr", ":8477", "HTTP listen address")
	seed := flag.Int64("seed", 1, "world seed; must match the uploading clients")
	scale := flag.Float64("scale", 0.25, "population scale; must match the uploading clients")
	epoch := flag.Int("epoch", 1<<15, "events per epoch commit")
	workers := flag.Int("workers", 0, "classification/fixpoint workers (0 = GOMAXPROCS)")
	compress := flag.Bool("compress", false, "keep sealed chunks of the live store compressed (cold epochs stop paying full-width memory; served artifacts are identical)")
	data := flag.String("data", "", "durability directory (WAL + checkpoints); empty = memory-only")
	walSync := flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | none")
	walSyncEvery := flag.Duration("wal-sync-interval", 100*time.Millisecond, "background fsync cadence under -wal-sync=interval")
	walSegment := flag.Int64("wal-segment", 64<<20, "WAL segment size before rotation, bytes")
	ckptBytes := flag.Int64("checkpoint-bytes", 0, "cut a checkpoint automatically once the uncovered WAL exceeds this many bytes (0 = only on flush/shutdown; needs -data)")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently admitted uploads; excess gets 429 + Retry-After (0 = unlimited)")
	maxUpload := flag.Int64("max-upload-bytes", 0, "max upload request body, bytes (0 = 64 MiB)")
	uploadTimeout := flag.Duration("upload-timeout", 30*time.Second, "per-upload read+apply deadline (0 = none)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 0, "http.Server ReadTimeout (0 = none; uploads are already bounded by -upload-timeout)")
	writeTimeout := flag.Duration("write-timeout", 0, "http.Server WriteTimeout (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	node := flag.String("node", "", "stable shard name in a cluster (enables heartbeating with -registry)")
	advertise := flag.String("advertise", "", "base URL clients and the merge tier reach this shard at (default http://<addr>)")
	registry := flag.String("registry", "", "comma-separated registry base URLs to heartbeat into (typically the mergerd address)")
	heartbeat := flag.Duration("heartbeat", time.Second, "heartbeat cadence with -registry")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "collectd: building world (seed=%d scale=%.2f)...\n", *seed, *scale)
	start := time.Now()
	world, err := scenario.BuildWorldContext(context.Background(), scenario.Params{
		Seed: *seed, Scale: *scale, Workers: *workers,
		Progress: func(ev scenario.PhaseEvent) {
			if ev.Done == ev.Total {
				fmt.Fprintf(os.Stderr, "collectd:   %-10s done (%v)\n", ev.Phase, ev.Elapsed.Round(time.Millisecond))
			}
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "collectd: world ready in %v (%d users, %d publishers)\n",
		time.Since(start).Round(time.Millisecond), len(world.Users), len(world.Graph.Publishers))

	c := ingest.NewCollector(world, ingest.Config{
		EpochEvents: *epoch, Workers: *workers, Compress: *compress,
		DataDir: *data, WALSync: *walSync,
		WALSyncInterval: *walSyncEvery, WALSegmentBytes: *walSegment,
		CheckpointBytes: *ckptBytes,
	})
	defer c.Close()
	handler := ingest.NewServer(c, ingest.WithLimits(ingest.Limits{
		MaxInFlight:    *maxInflight,
		MaxUploadBytes: *maxUpload,
		UploadTimeout:  *uploadTimeout,
	}))
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	// Listen before recovering: during a long WAL replay the daemon
	// already answers /healthz (alive) and /readyz (progress), and
	// uploads bounce with 503 + Retry-After instead of connection
	// refused — retrying clients wait recovery out.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "collectd: serving on %s (epoch=%d events, workers=%d)\n", ln.Addr(), *epoch, *workers)

	// Cluster membership: announce this shard to the registries so the
	// merge tier pulls its snapshots and clients can re-resolve its
	// address after a restart. Heartbeats start before recovery — the
	// shard is discoverable (suspect, then alive) while it replays.
	if *node != "" && *registry != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		var targets []string
		for _, t := range strings.Split(*registry, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		hb := &cluster.Heartbeater{
			Node: *node, Addr: adv, Targets: targets, Interval: *heartbeat,
			Source: func() (int, int) {
				snap := c.Snapshot()
				return snap.Epoch(), snap.Rows()
			},
		}
		hb.Start()
		defer hb.Stop()
		fmt.Fprintf(os.Stderr, "collectd: heartbeating as %q (%s) to %v every %v\n", *node, adv, targets, *heartbeat)
	}

	if *data != "" {
		fmt.Fprintf(os.Stderr, "collectd: recovering from %s (wal-sync=%s)...\n", *data, *walSync)
		rstats, err := c.Recover()
		if err != nil {
			fmt.Fprintln(os.Stderr, "collectd:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "collectd: recovered in %v (checkpoint epoch %d, %d WAL segments, %d records, %d rows)\n",
			rstats.Duration.Round(time.Millisecond), rstats.CheckpointEpoch, rstats.Segments, rstats.Records, rstats.Rows)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "collectd:", err)
			os.Exit(1)
		}
	}

	// Graceful shutdown: refuse new uploads (503 + Retry-After), drain
	// in-flight requests, then commit the final epoch and checkpoint.
	fmt.Fprintln(os.Stderr, "collectd: shutting down (draining uploads)")
	c.BeginDrain()
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shctx)
	snap, err := c.FlushCheckpoint()
	if err != nil {
		fmt.Fprintln(os.Stderr, "collectd: final checkpoint:", err)
		os.Exit(1)
	}
	if *data != "" {
		fmt.Fprintf(os.Stderr, "collectd: checkpointed epoch %d, %d rows\n", snap.Epoch(), snap.Rows())
	}
	fmt.Fprintf(os.Stderr, "collectd: stopped at epoch %d, %d rows\n", snap.Epoch(), snap.Rows())
}
