// Command mergerd is the cluster fan-in tier: it keeps the membership
// registry the collectors heartbeat into, polls every live shard's
// /v1/snapshot export, merges the per-shard states into one global
// copy-on-write snapshot, and serves the full query API over the merged
// view — so a partitioned cluster answers /v1/experiments exactly like
// a single collector over the union of the same events.
//
//	POST /cluster/v1/heartbeat  shard liveness announcements (collectd -registry)
//	GET  /cluster/v1/members    the membership view (JSON or wire)
//	GET  /v1/experiments        registry ids
//	GET  /v1/experiments/{id}   artifact over the merged snapshot
//	GET  /v1/stats              merged aggregates + store footprint
//	GET  /metrics               Prometheus text: membership, transitions,
//	                            re-merges, projection-scan counters
//	GET  /healthz, /readyz      liveness; readiness = all -shards merged
//
// A shard that dies keeps contributing its last pulled export, so the
// merged view never silently drops a partition; /readyz holds 503 until
// every name in -shards has reported at least once. A shard that keeps
// failing its pulls trips a per-shard circuit breaker (-breaker-fails,
// -breaker-cooldown): the fan-in stops hammering it and probes after
// the cooldown, while its cached export keeps serving. Degradation is
// visible, not silent — /readyz flips its status to "degraded" (still
// 200), /v1/stats carries a per-shard health block, and /metrics
// exposes breaker trips/probes plus stale-shard gauges (-stale-after).
//
// Run a two-collector cluster locally:
//
//	collectd -addr :8481 -node c1 -registry http://localhost:8080
//	collectd -addr :8482 -node c2 -registry http://localhost:8080
//	mergerd  -addr :8080 -shards c1,c2
//	crawlsim -replay -targets c1=http://localhost:8481,c2=http://localhost:8482
package main

import (
	"context"
	"flag"
	"fmt"
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
	addr := flag.String("addr", ":8080", "HTTP listen address")
	seed := flag.Int64("seed", 1, "world seed; must match the collectors")
	scale := flag.Float64("scale", 0.25, "population scale; must match the collectors")
	workers := flag.Int("workers", 0, "merge fixpoint workers (0 = GOMAXPROCS)")
	shards := flag.String("shards", "", "comma-separated expected shard names; /readyz waits for all of them (empty = serve whoever reports)")
	poll := flag.Duration("poll", 2*time.Second, "shard snapshot poll cadence")
	suspect := flag.Duration("suspect", 3*time.Second, "heartbeat age after which a shard is suspect")
	dead := flag.Duration("dead", 10*time.Second, "heartbeat age after which a shard is dead")
	breakerFails := flag.Int("breaker-fails", 3, "consecutive pull failures before a shard's circuit opens")
	breakerCooldown := flag.Duration("breaker-cooldown", 10*time.Second, "how long an open circuit skips a shard before probing it")
	staleAfter := flag.Duration("stale-after", 30*time.Second, "age without a fresh pull before a shard's cached export counts as stale")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "mergerd: building world (seed=%d scale=%.2f)...\n", *seed, *scale)
	start := time.Now()
	world, err := scenario.BuildWorldContext(context.Background(), scenario.Params{
		Seed: *seed, Scale: *scale, Workers: *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mergerd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mergerd: world ready in %v\n", time.Since(start).Round(time.Millisecond))

	var expect []string
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			expect = append(expect, s)
		}
	}

	reg := cluster.NewRegistry(*suspect, *dead)
	fanin := &cluster.Fanin{
		World:           world,
		Registry:        reg,
		Shards:          expect,
		Workers:         *workers,
		Interval:        *poll,
		BreakerFails:    *breakerFails,
		BreakerCooldown: *breakerCooldown,
		StaleAfter:      *staleAfter,
	}
	fanin.Start()
	defer fanin.Stop()

	qs := ingest.NewQueryServer(fanin.Snapshot, fanin.Ready)
	qs.OnHealth(func() (any, bool) {
		return fanin.Health(), len(fanin.Degraded()) > 0
	})
	mux := http.NewServeMux()
	mux.Handle("/cluster/v1/", reg.Handler())
	mux.Handle("GET /metrics", cluster.MetricsHandler(reg, fanin))
	mux.Handle("/", qs)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mergerd: serving on %s (shards=%v, poll=%v)\n", *addr, expect, *poll)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "mergerd:", err)
			os.Exit(1)
		}
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(shctx)
	fmt.Fprintln(os.Stderr, "mergerd: stopped")
}
