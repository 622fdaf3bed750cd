package classify

import (
	"runtime"
	"testing"

	"crossborder/internal/browser"
)

// benchCollector simulates the shared benchmark capture once: a
// sequential browse of 14 users over the scale-0.05 rig, ready to
// merge into any row sink (mergeInto never mutates the shard, so one
// collector serves several sinks).
func benchCollector(b testing.TB) (*ShardedCollector, []capRef) {
	b.Helper()
	g, srv, el, ep := shardRig(b, 31)
	users := browser.MakeUsers([]browser.CountryCount{
		{Country: "DE", Users: 6}, {Country: "ES", Users: 4}, {Country: "FR", Users: 4},
	})
	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 40})
	sc := NewShardedCollector(g, el, ep, start, 1)
	sim.Run(7, users, sc.Shard(0))
	order := make([]capRef, len(sc.Shard(0).caps))
	for i := range order {
		order[i] = capRef{sh: sc.Shard(0), idx: i}
	}
	return sc, order
}

// semiBenchDataset builds a merged dataset in post-stage-1 state (semi
// stages not yet run) plus a pristine copy of the class columns, so
// each benchmark iteration can rewind and re-run the fixpoint.
func semiBenchDataset(b *testing.B, chunkRows int) (*Dataset, [][]Class) {
	b.Helper()
	sc, order := benchCollector(b)
	ds, err := sc.mergeInto(order, NewMemStoreChunked(chunkRows), false)
	if err != nil {
		b.Fatal(err)
	}
	pristine := make([][]Class, ds.Store.NumChunks())
	for ci := range pristine {
		src := ds.Store.Classes(ci)
		pristine[ci] = append([]Class(nil), src...)
	}
	return ds, pristine
}

func rewindClasses(ds *Dataset, pristine [][]Class) {
	for ci, src := range pristine {
		copy(ds.Store.Classes(ci), src)
	}
}

// BenchmarkSemiStages times the one semi-stage engine, a one-shot
// LiveSemi (RunSemiStages) built, extended over every row and closed
// each iteration, at the worker count the pipeline would use
// (GOMAXPROCS), over a multi-chunk store. CI gates it as a same-run
// ratio against BenchmarkSemiStagesSequential.
func BenchmarkSemiStages(b *testing.B) {
	ds, pristine := semiBenchDataset(b, 2048)
	workers := runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(ds.Len()), "rows")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewindClasses(ds, pristine)
		RunSemiStages(ds, workers)
	}
}

// BenchmarkSemiStagesSequential times the sequential test oracle
// (runSemiStagesSequential) over the same store.
func BenchmarkSemiStagesSequential(b *testing.B) {
	ds, pristine := semiBenchDataset(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewindClasses(ds, pristine)
		runSemiStagesSequential(ds)
	}
}

// BenchmarkSpillScan measures a full-width scan (scanWide, every column
// decoded) of the whole compressed spill store. Bytes/op is the raw
// fixed-width reference; the size-ratio metric reports compressed/raw
// on disk. -benchmem pins the allocation flatness contract: the scan
// draws its decode buffer and codec scratch from a pool, so allocs/op
// stays a small constant regardless of chunk count.
func BenchmarkSpillScan(b *testing.B) {
	sc, order := benchCollector(b)
	b.Run("compressed", func(b *testing.B) {
		sp, err := NewMemStoreSpilled(b.TempDir(), 4096)
		if err != nil {
			b.Fatal(err)
		}
		ds, err := sc.mergeInto(order, sp, false)
		if err != nil {
			b.Fatal(err)
		}
		defer ds.Close()
		b.SetBytes(sp.RawSize())
		b.ReportMetric(float64(sp.Footprint().CompressedBytes)/float64(sp.RawSize()), "size-ratio")
		b.ResetTimer()
		var blackhole uint64
		for i := 0; i < b.N; i++ {
			scanWide(ds, func(_ int, c *Chunk) {
				for j := range c.URLHash {
					blackhole += c.URLHash[j] ^ uint64(c.IP[j]) ^ uint64(c.FQDN[j]) ^ uint64(c.Day[j])
				}
			})
		}
		_ = blackhole
	})
}

// BenchmarkChunkCodec measures the codec itself — encode and decode of
// one full study-shaped chunk; bytes/op is the raw fixed-width size,
// so ns/op converts to raw-layout MB/s. encode-reference runs the
// test oracle referenceEncodeBlock over the same chunk; CI gates
// encode as a same-run ratio against it.
func BenchmarkChunkCodec(b *testing.B) {
	sc, order := benchCollector(b)
	ds, err := sc.mergeInto(order, NewMemStoreChunked(DefaultChunkRows), false)
	if err != nil {
		b.Fatal(err)
	}
	c := wideChunk(ds.Store, 0)
	if c.Len() < DefaultChunkRows {
		b.Fatalf("bench capture has only %d rows; need a full chunk", c.Len())
	}
	rawBytes := int64(c.Len() * spillRowBytes)
	cc := GetCodec()
	defer PutCodec(cc)
	block := cc.EncodeBlock(c, nil)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(rawBytes)
		b.ReportMetric(float64(len(block))/float64(rawBytes), "size-ratio")
		var enc []byte
		for i := 0; i < b.N; i++ {
			enc = cc.EncodeBlock(c, enc[:0])
		}
	})
	b.Run("encode-reference", func(b *testing.B) {
		b.SetBytes(rawBytes)
		var rc refCodec
		enc := referenceEncodeBlock(&rc, c, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc = referenceEncodeBlock(&rc, c, enc[:0])
		}
		b.ReportMetric(float64(len(enc))/float64(rawBytes), "size-ratio")
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(rawBytes)
		buf := &Chunk{}
		for i := 0; i < b.N; i++ {
			if err := DecodeBlockInto(block, c.Len(), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScanCols measures the projection scan over the compressed
// spill store. proj reads two of the nine columns in encoded form (the
// run/dict views of an Analyze-shaped kernel); wide is the same data
// through the decode-everything scanWide for comparison; zonemap-skip prunes
// every chunk from its zone map alone, measuring the metadata-only
// floor of a selective query. Bytes/op is the raw fixed-width
// reference in all three, so MB/s is directly comparable.
func BenchmarkScanCols(b *testing.B) {
	sc, order := benchCollector(b)
	sp, err := NewMemStoreSpilled(b.TempDir(), 4096)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := sc.mergeInto(order, sp, false)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	var blackhole uint64
	b.Run("proj", func(b *testing.B) {
		b.SetBytes(sp.RawSize())
		for i := 0; i < b.N; i++ {
			ScanStoreCols(sp, func(_ int, pc *ProjChunk) {
				for _, r := range pc.Runs(ColCountry) {
					blackhole += r.Value * uint64(r.Len)
				}
				if dict, idx, ok := pc.DictView(ColIP); ok {
					for _, v := range dict {
						blackhole += v
					}
					blackhole += uint64(idx[0])
				} else {
					for _, v := range pc.Wide(ColIP) {
						blackhole += v
					}
				}
			})
		}
	})
	b.Run("wide", func(b *testing.B) {
		b.SetBytes(sp.RawSize())
		for i := 0; i < b.N; i++ {
			scanWide(ds, func(_ int, c *Chunk) {
				for j := range c.Country {
					blackhole += uint64(c.Country[j]) + uint64(c.IP[j])
				}
			})
		}
	})
	b.Run("zonemap-skip", func(b *testing.B) {
		// A Day predicate no row satisfies: every chunk's zone map
		// refutes it, so the scan touches metadata only.
		before := ReadScanStats()
		for i := 0; i < b.N; i++ {
			ScanStoreCols(sp, func(_ int, pc *ProjChunk) {
				if pc.Zone != nil && pc.Zone.Max[ColDay] < 1<<15 {
					return
				}
				for _, v := range pc.Wide(ColDay) {
					blackhole += v
				}
			})
		}
		after := ReadScanStats()
		scanned := after.ChunksScanned - before.ChunksScanned
		if scanned > 0 {
			b.ReportMetric(float64(after.ChunksSkipped-before.ChunksSkipped)/float64(scanned), "skip-rate")
		}
	})
	_ = blackhole
}

// table2Sink keeps the benchmarked kernels' results alive.
var table2Sink Table2

// BenchmarkComputeTable2 times the Table 2 kernel against its hash-set
// oracle over the same classified wide store, so CI can gate the
// method-mask index as a same-run ratio.
func BenchmarkComputeTable2(b *testing.B) {
	ds, _ := semiBenchDataset(b, DefaultChunkRows)
	RunSemiStages(ds, 1)
	for _, k := range []struct {
		name   string
		kernel func(*Dataset) Table2
	}{{"index", ComputeTable2}, {"oracle", setTable2}} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportMetric(float64(ds.Len()), "rows")
			for i := 0; i < b.N; i++ {
				table2Sink = k.kernel(ds)
			}
		})
	}
}
