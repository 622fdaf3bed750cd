package crossborder_test

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"crossborder/internal/goldentest"
	"crossborder/internal/ingest"
)

// TestLiveReplayGoldenParity is the end-to-end contract of the live
// ingestion subsystem: replaying a seed-1 / scale-0.05 simulation
// through collectd's HTTP pipeline — any epoch size, any worker count —
// yields experiment artifacts byte-identical to the batch
// crossborder.New study. The replay exercises the full serving stack:
// wire encoding, upload dedup, epoch commits, the incremental fixpoint
// and aggregates (which seed the snapshot suite's geolocation joins),
// and the query API.
func TestLiveReplayGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replay is not short")
	}
	g := goldentest.Load(t)

	for _, cfg := range []ingest.Config{
		{EpochEvents: 1777, Workers: 3, ChunkRows: 512},                 // many epochs, multi-chunk, parallel shards
		{EpochEvents: 1 << 22, Workers: 1},                              // one epoch, sequential
		{EpochEvents: 1777, Workers: 3, ChunkRows: 512, Compress: true}, // compressed-resident live store
	} {
		c := ingest.NewCollector(g.World, cfg)
		srv := httptest.NewServer(ingest.NewServer(c))
		cl := &ingest.Client{Base: srv.URL, Binary: true}

		if _, err := cl.Replay(g.Events, 768, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("cfg %+v", cfg)
		g.Check(t, cl, label)
		// The incremental /v1/stats view must agree with the batch
		// study's Table 1 numbers.
		g.CheckStats(t, cl, label)

		srv.Close()
		c.Close()
	}
}
