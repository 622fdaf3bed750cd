// Package crossborder reproduces "Tracing Cross Border Web Tracking"
// (Iordanou, Smaragdakis, Poese, Laoutaris — IMC 2018): a measurement
// methodology that quantifies how many web tracking flows cross national
// and EU28/GDPR borders.
//
// The library rebuilds the paper's entire pipeline on a synthetic, fully
// deterministic substrate:
//
//   - a browser-extension study over a synthetic web with real RTB
//     cascades and cookie syncing (internal/browser, internal/webgraph,
//     internal/rtb);
//   - the multi-stage tracking-flow classifier: easylist/easyprivacy
//     filter matching plus referrer propagation and URL-keyword
//     heuristics (internal/blocklist, internal/classify);
//   - tracker IP inventory completion via passive DNS with per-binding
//     validity windows (internal/pdns, internal/trackerdb);
//   - three geolocation services — ground truth, commercial databases
//     with legal-entity HQ bias, and a RIPE IPmap-style active
//     geolocator (internal/geo);
//   - the border-crossing analysis itself (internal/core), the §5
//     localization what-ifs (internal/locality), the §6 sensitive-category
//     tracing (internal/sensitive), and the §7 ISP NetFlow scale-up
//     (internal/netflow).
//
// # The staged pipeline
//
// New builds the study as a context-aware pipeline — world/zones,
// simulation, classification, inventory, geolocation, sensitive
// identification — with cancellation checkpoints inside every expensive
// phase and per-phase progress events:
//
//	study, err := crossborder.New(ctx,
//		crossborder.WithScale(0.1),
//		crossborder.WithProgress(func(ev crossborder.PhaseEvent) {
//			log.Printf("%s %d/%d", ev.Phase, ev.Done, ev.Total)
//		}))
//	if err != nil { ... } // ctx.Err() on cancellation, workers drained
//	fmt.Println(study.Fig7().Render()) // the MaxMind-vs-IPmap flip
//
// # The experiment registry
//
// Every table and figure of the paper is a registered Experiment with a
// canonical id ("table1" ... "fig12"), paper section, dependencies, and
// a runner producing an Artifact (plain-text Render plus JSON and CSV
// encodings of the structured result). See EXPERIMENTS.md — generated
// from the registry — for the full index, and README.md for a
// quickstart. The registry executes as a dependency graph:
//
//	arts, err := study.RunAll(ctx)        // parallel, paper order
//	a, err := study.Artifact(ctx, "fig7") // one experiment, deps first
//
// Study.RenderAll renders the whole evaluation in paper order,
// byte-identical for a fixed seed at any level of parallelism.
//
// # Parallel simulation and determinism
//
// The simulation/classification pipeline is multicore without giving up
// bit-for-bit reproducibility, via three mechanisms:
//
//   - Per-user RNG streams. Every simulated user browses on a private
//     stream whose seed is derived from (study seed, user ID) by a
//     splitmix64-style hash (browser.UserSeed). A user's event sequence
//     therefore never depends on which worker ran them, when, or what
//     other users did — the property that makes fan-out safe.
//   - Sharded collection with a deterministic merge. Each worker drives
//     its own classify.Shard (private interner, publisher/country index,
//     per-host compiled filter rules, per-user row buffers); no locks on
//     the capture path. classify.ShardedCollector.FinalizeInto then
//     replays the captures in global user order through a
//     classify.Merger, which remaps each shard's ids through per-shard
//     tables filled in encounter order, so the merged Dataset is
//     byte-identical to a sequential run at any worker count
//     (WithWorkers).
//   - Read-only lookup substrates. dns.Server.Resolve after Freeze and
//     netsim.World lookups after Freeze perform no writes and are safe
//     for any number of concurrent readers (verified under -race).
//     dns.Server.Plan compiles one (FQDN, country, time) query into an
//     immutable dns.Plan whose Pick returns exactly Resolve's answer
//     and consumes exactly Resolve's draws — a Float64 for the spill
//     when the zone can spill, then the policy's Intn — so Table 8's
//     synthesizer memoizes plans (per FQDN name, for one Table 8 call)
//     without moving a single sampled flow.
//
// Downstream, core.Join builds the truth, IPmap and MaxMind flow maps
// from one projected (Country, IP) scan, sharded over GOMAXPROCS
// workers whose per-shard flow maps merge by commutative counter
// addition; each worker locates each distinct IP once per service. The
// batch Suite and every live snapshot (collector epoch, recovered or
// fan-in merged) call it at most once, and the registry's RunAll
// computes independent experiments concurrently over the precomputed
// geolocation joins.
// Tables 5 and 6 share one locality engine per Suite, built once
// behind a sync.Once and immutable afterwards; the Suite keeps only
// the two small results and drops the engine. Measured on a 2-vCPU
// container (seed 1, scale 0.05 ingest ledger), the index-driven
// kernels cut Table 2 from 74 to 20 ms, Tables 5+6 from 73 to 9 ms and
// Table 8 from 138 to 50 ms (README, "The experiment registry").
//
// # Row storage and compression
//
// The classified dataset lives column-wise in fixed-size chunks in one
// row store: a prefix of sealed codec blocks followed by wide chunks.
// By default no chunk seals and every column stays wide in memory.
// WithCompression(true) seals each chunk into a compressed block as it
// fills, which is what long-running collectors want; DiskRowStore seals
// the same way but writes the blocks to a temporary file, keeping only
// the one-byte class column resident. Sealed chunks run through a
// per-column codec (dictionary with bit-packed indices, run-length,
// raw, plus an LZ4-style block pass) that cuts the spill file about
// 3.40x versus the raw fixed-width layout. The codec is lossless and
// checksummed, so the storage choice never changes a rendered artifact.
// Every reader goes through one projection path (classify.ProjChunk):
// it loads only the columns a kernel touches, in their encoded form
// where that is cheaper, and skips a chunk whose zone map or class
// column rules it out. Only block bytes from outside the process —
// checkpoints and the fan-in's shard exports — are decoded to full
// width.
//
// # Scenario packs and sweeps
//
// The base world is one fixed scenario; scenario packs make it
// pluggable without sacrificing reproducibility. A pack (see
// internal/scenario/pack) installs deterministic mutation hooks at
// fixed points of the build — a world hook running between filter-list
// generation and the DNS/world freezes, and a per-user profile hook —
// drawing randomness only from a pack-private stream derived from
// (seed, pack name), so the shared build rng and the per-user browsing
// streams consume exactly the draws of an unmodified build.
// WithPack("default") is therefore byte-identical to no pack at all,
// while the shipped families deliberately bend one subsystem each:
// "routing" re-registers tracker zones as EU-biased multi-region
// deployments under weighted/latency/failover GSLB policies,
// "adversarial" adds filter-list-invisible cloaked and rotating
// hostnames to stress the classifier, and "population" mixes in
// mobile, VPN, and blocker-running users. Each pack declares
// post-study invariants (EU28 confinement rises, the stage-1 catch
// share drops, request volume drops) checked against the default
// build at the same seed. cmd/sweep runs seed × pack grids on a
// worker pool — deterministic at any concurrency — and renders
// cross-study comparison artifacts from a separate registry.
//
// # Live collection and the cluster tier
//
// The batch study has a streaming twin: cmd/collectd ingests
// sequence-numbered uploads into the same columnar engine epoch by
// epoch (internal/ingest), optionally durable via a write-ahead log
// and epoch checkpoints, and serves every registered artifact live.
// Its ingest lock covers sequencing only: uploads are validated in
// place over their wire bytes and queued as wire frames, and each cut
// epoch is decoded, classified and published by a committer goroutine
// while the next epoch fills (at most one in flight).
// internal/cluster scales that horizontally — N collectd shards each
// own a consistent-hash partition of the users, announce themselves
// over a heartbeat membership layer, and cmd/mergerd merges
// the per-shard epoch snapshots (interner remap, cross-shard fixpoint
// re-closure) behind the same /v1/* query API. The invariant at every
// tier is byte parity: single collector, crash-recovered collector,
// and eight-shard merged cluster all render the exact bytes of the
// batch study over the same events.
//
// # Fault tolerance and chaos testing
//
// The serving tier is hardened for hostile conditions and proves it
// with deterministic fault injection (internal/chaos): every fault
// site fires once per fixed window of draws, at a position drawn from
// a splitmix64 stream keyed by (seed, site), so a failing schedule
// replays exactly. chaos.Transport injects network faults — latency,
// resets, responses lost after the server applied them,
// truncated/corrupted bodies, 503 bursts — and chaos.FaultFS tears the
// WAL/checkpoint write path with short writes, fsync failures, and
// failed renames, or cuts it off the disk as kill -9 would. Against those faults, collectd bounds its
// in-flight uploads (429 + Retry-After on overload, 413 on oversize
// bodies, per-upload deadlines), clients back off honoring
// Retry-After and re-send idempotently, and mergerd trips a
// per-shard circuit breaker, serving the failed shard's cached
// export while /readyz, /v1/stats, and /metrics report the
// degradation. The chaos harness (internal/ingest/chaostest) runs
// the full cluster under all fault families, kill -9 included, at
// fixed seeds, heals, and asserts byte parity with the uninterrupted
// batch study.
package crossborder
