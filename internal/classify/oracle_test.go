package classify

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// The row oracles below are reference implementations of the report
// kernels: each walks full-width chunks with scanWide and aggregates
// row by row, the obvious way. TestKernelsMatchRowOracle pins the
// projection kernels to them.

// wideScratch is the decode scratch of the full-width oracle read: the
// spill read buffer, a wide chunk and a codec.
type wideScratch struct {
	raw []byte
	buf Chunk
	cc  ChunkCodec
}

var wideScratchPool = sync.Pool{New: func() any { return new(wideScratch) }}

// load returns chunk i of st with all nine columns wide: a wide chunk
// resident, a sealed one decoded whole into s.buf with the store's
// resident class column. The result is valid until s is reused.
func (s *wideScratch) load(st *MemStore, i int) *Chunk {
	block, err := st.BlockBytes(i, &s.raw)
	if err != nil {
		panic(err)
	}
	if block == nil {
		return st.wide[i-len(st.classes)]
	}
	if err := s.cc.DecodeBlock(block, len(st.classes[i]), &s.buf); err != nil {
		panic(err)
	}
	s.buf.Class = st.classes[i]
	return &s.buf
}

// wideChunk returns chunk i of st with all nine columns wide, in a
// buffer of its own.
func wideChunk(st *MemStore, i int) *Chunk { return new(wideScratch).load(st, i) }

// scanWide walks ds chunk by chunk in row order with every column
// decoded, drawing its scratch from a pool so repeated scans allocate
// nothing: the decode-everything read that the projection path
// replaced, kept as the row oracles' scan. base is the global index of
// the chunk's first row.
func scanWide(ds *Dataset, fn func(base int, c *Chunk)) {
	s := wideScratchPool.Get().(*wideScratch)
	defer func() {
		s.buf.Class = nil
		wideScratchPool.Put(s)
	}()
	base := 0
	for i := 0; i < ds.Store.NumChunks(); i++ {
		c := s.load(ds.Store, i)
		fn(base, c)
		base += c.Len()
	}
}

// rowTable2 is ComputeTable2's row oracle.
func rowTable2(ds *Dataset) Table2 {
	type agg struct {
		fqdns map[uint32]bool
		tlds  map[string]bool
		urls  map[uint64]bool
		total int64
	}
	var abp, semi, tot agg
	for _, a := range []*agg{&abp, &semi, &tot} {
		a.fqdns, a.tlds, a.urls = map[uint32]bool{}, map[string]bool{}, map[uint64]bool{}
	}
	scanWide(ds, func(_ int, c *Chunk) {
		for i, cls := range c.Class {
			if !cls.IsTracking() {
				continue
			}
			method := &semi
			if cls == ClassABP {
				method = &abp
			}
			for _, a := range []*agg{&tot, method} {
				a.fqdns[c.FQDN[i]] = true
				a.tlds[webgraph.ETLDPlusOne(ds.FQDNs.Str(c.FQDN[i]))] = true
				a.urls[c.URLHash[i]] = true
				a.total++
			}
		}
	})
	stats := func(a agg) MethodStats {
		return MethodStats{FQDNs: len(a.fqdns), TLDs: len(a.tlds), UniqueRequests: int64(len(a.urls)), TotalRequests: a.total}
	}
	return Table2{ABP: stats(abp), Semi: stats(semi), Total: stats(tot)}
}

// setTable2 is ComputeTable2's hash-set oracle: the kernel before the
// method masks, over the same projection scan, with one set insert per
// method per row and a cached eTLD+1 per FQDN.
func setTable2(ds *Dataset) Table2 {
	type agg struct {
		fqdns map[uint32]struct{}
		tlds  map[string]struct{}
		urls  map[uint64]struct{}
		total int64
	}
	newAgg := func() *agg {
		return &agg{
			fqdns: make(map[uint32]struct{}),
			tlds:  make(map[string]struct{}),
			urls:  make(map[uint64]struct{}),
		}
	}
	abp, semi, tot := newAgg(), newAgg(), newAgg()
	add := func(a *agg, fqdn uint32, urlHash uint64, tld string) {
		a.fqdns[fqdn] = struct{}{}
		a.tlds[tld] = struct{}{}
		a.urls[urlHash] = struct{}{}
		a.total++
	}
	tldOf := make(map[uint32]string)
	tld := func(f uint32) string {
		t, ok := tldOf[f]
		if !ok {
			t = webgraph.ETLDPlusOne(ds.FQDNs.Str(f))
			tldOf[f] = t
		}
		return t
	}
	ds.ScanCols(func(_ int, pc *ProjChunk) {
		cls := pc.Class
		if !AnyTracking(cls) {
			return
		}
		urls := pc.Wide(ColURLHash)
		fqdns := pc.Wide(ColFQDN)
		for i, c := range cls {
			if !c.IsTracking() {
				continue
			}
			f := uint32(fqdns[i])
			t := tld(f)
			add(tot, f, urls[i], t)
			if c == ClassABP {
				add(abp, f, urls[i], t)
			} else {
				add(semi, f, urls[i], t)
			}
		}
	})
	toStats := func(a *agg) MethodStats {
		return MethodStats{
			FQDNs:          len(a.fqdns),
			TLDs:           len(a.tlds),
			UniqueRequests: int64(len(a.urls)),
			TotalRequests:  a.total,
		}
	}
	return Table2{ABP: toStats(abp), Semi: toStats(semi), Total: toStats(tot)}
}

// rowPerSiteCounts is PerSiteCounts' row oracle.
func rowPerSiteCounts(ds *Dataset) []SiteCounts {
	clean := make([]int64, len(ds.Publishers))
	tracking := make([]int64, len(ds.Publishers))
	scanWide(ds, func(_ int, c *Chunk) {
		for i, cls := range c.Class {
			if cls.IsTracking() {
				tracking[c.Publisher[i]]++
			} else {
				clean[c.Publisher[i]]++
			}
		}
	})
	var out []SiteCounts
	for i, p := range ds.Publishers {
		if clean[i]+tracking[i] > 0 {
			out = append(out, SiteCounts{Domain: p.Domain, Clean: clean[i], Tracking: tracking[i]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// rowTopTrackingTLDs is TopTrackingTLDs' row oracle.
func rowTopTrackingTLDs(ds *Dataset, n int) []TLDSplit {
	split := make(map[string]*TLDSplit)
	scanWide(ds, func(_ int, c *Chunk) {
		for i, cls := range c.Class {
			if !cls.IsTracking() {
				continue
			}
			tld := webgraph.ETLDPlusOne(ds.FQDNs.Str(c.FQDN[i]))
			s := split[tld]
			if s == nil {
				s = &TLDSplit{TLD: tld}
				split[tld] = s
			}
			if cls == ClassABP {
				s.ABP++
			} else {
				s.Semi++
			}
		}
	})
	var out []TLDSplit
	for _, s := range split {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].TLD < out[j].TLD
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// rowScore is Score's row oracle.
func rowScore(ds *Dataset) Accuracy {
	var a Accuracy
	scanWide(ds, func(_ int, c *Chunk) {
		for i, cls := range c.Class {
			truth := c.Flags[i]&FlagTruthing != 0
			switch {
			case cls.IsTracking() && truth:
				a.TruePositives++
			case cls.IsTracking():
				a.FalsePositives++
			case truth:
				a.FalseNegatives++
			default:
				a.TrueNegatives++
			}
		}
	})
	return a
}

// rowComputeStats is ComputeStats' row oracle.
func rowComputeStats(ds *Dataset) DatasetStats {
	users := make(map[int32]bool)
	fqdns := make(map[uint32]bool)
	scanWide(ds, func(_ int, c *Chunk) {
		for i := range c.User {
			users[c.User[i]] = true
			fqdns[c.FQDN[i]] = true
		}
	})
	return DatasetStats{
		Users:            len(users),
		FirstPartySites:  len(ds.Publishers),
		FirstPartyVisits: ds.Visits,
		ThirdPartyFQDNs:  len(fqdns),
		ThirdPartyReqs:   int64(ds.Len()),
	}
}

// runSemiStagesSequential is the stage-2/3 oracle, a direct port of the
// original row-slice loop: one goroutine, rows in order, conversions
// visible within the pass. Its SemiReferrer/SemiKeyword split follows
// scan order (a row that qualifies under both rules takes whichever
// pass reaches it first), so tests compare the engine to it only at the
// level every aggregate reads: the tracking set and the ABP label.
func runSemiStagesSequential(ds *Dataset) {
	st := ds.Store
	// LTF membership at FQDN granularity: an FQDN is "in the LTF" once
	// any request to it is classified as tracking.
	inLTF := make([]bool, ds.FQDNs.Len())
	buf := wideScratchPool.Get().(*wideScratch)
	defer wideScratchPool.Put(buf)
	for ci := 0; ci < st.NumChunks(); ci++ {
		c := buf.load(st, ci)
		for i, cls := range c.Class {
			if cls == ClassABP {
				inLTF[c.FQDN[i]] = true
			}
		}
	}
	for {
		changed := false
		// Stage 2: a request with arguments whose referrer FQDN is
		// already tracking becomes tracking.
		for ci := 0; ci < st.NumChunks(); ci++ {
			c := buf.load(st, ci)
			for i := range c.Class {
				if c.Class[i] != ClassClean || c.Flags[i]&FlagHasArgs == 0 || c.RefFQDN[i] == 0 {
					continue
				}
				if inLTF[c.RefFQDN[i]] {
					c.Class[i] = ClassSemiReferrer
					if !inLTF[c.FQDN[i]] {
						inLTF[c.FQDN[i]] = true
						changed = true
					}
				}
			}
		}
		// Stage 3: keyword + arguments heuristic for the remainder.
		for ci := 0; ci < st.NumChunks(); ci++ {
			c := buf.load(st, ci)
			for i := range c.Class {
				if c.Class[i] == ClassClean && c.Flags[i]&FlagHasArgs != 0 && c.Flags[i]&FlagKeyword != 0 {
					c.Class[i] = ClassSemiKeyword
					if !inLTF[c.FQDN[i]] {
						inLTF[c.FQDN[i]] = true
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// semiReference labels rows (stage-1 output over frame's interner) with
// one one-shot run of the engine on a wide store and returns the result,
// the reference every other run must match row for row. It first holds
// that run to the sequential oracle's tracking set and ABP labels, and
// to the documented tie-break: a semi row is SemiKeyword exactly when
// it carries arguments and a keyword.
func semiReference(t *testing.T, frame *Dataset, rows []Row) []Row {
	t.Helper()
	oracle, ref := *frame, *frame
	oracle.Store, ref.Store = StoreOf(rows...), StoreOf(rows...)
	runSemiStagesSequential(&oracle)
	RunSemiStages(&ref, 1)
	got, want := ref.Rows(), oracle.Rows()
	semis := 0
	for i := range want {
		g := got[i].Class
		if g.IsTracking() != want[i].Class.IsTracking() || (g == ClassABP) != (want[i].Class == ClassABP) {
			t.Fatalf("row %d class %v, sequential oracle %v", i, g, want[i].Class)
		}
		kw := got[i].Flags&(FlagHasArgs|FlagKeyword) == FlagHasArgs|FlagKeyword
		if g.IsSemi() && (g == ClassSemiKeyword) != kw {
			t.Fatalf("row %d class %v with flags %#x breaks the keyword-first tie-break", i, g, got[i].Flags)
		}
		if g.IsSemi() {
			semis++
		}
	}
	if semis == 0 {
		t.Fatal("reference run converted no row")
	}
	return got
}

// oracleDataset returns a random dataset frame (interner, publishers,
// countries) and n rows for it. Rows come in per-user capture blocks
// whose shape switches between low-cardinality and random columns, so
// every codec scheme — RLE, dictionary, delta, raw — appears in the
// sealed chunks. Narrow blocks draw FQDNs from a block-local window in
// the lower half of the interner and random blocks from the upper half,
// so some values occur only inside dictionary-coded chunks. finalClasses
// draws semi labels too; otherwise rows are stage-1 output (clean or
// ABP) for the fixpoint engines.
func oracleDataset(rng *rand.Rand, n int, finalClasses bool) (*Dataset, []Row) {
	const numFQDN, numPub = 600, 40
	ds := &Dataset{FQDNs: NewInterner(), Start: start, Visits: n / 10}
	for i := 1; i < numFQDN; i++ {
		ds.FQDNs.ID(fmt.Sprintf("h%d.t%d.example", i, i%13))
	}
	for i := 0; i < numPub; i++ {
		ds.Publishers = append(ds.Publishers, &webgraph.Publisher{Domain: fmt.Sprintf("site%02d.example", i)})
	}
	ds.Countries = []geodata.Country{"DE", "ES", "GR", "US", "BR"}
	rows := make([]Row, 0, n)
	for len(rows) < n {
		user := int32(rng.Intn(50))
		country := uint8(rng.Intn(len(ds.Countries)))
		pub := int32(rng.Intn(numPub))
		narrow := rng.Intn(2) == 0
		fqdnBase := 1 + rng.Intn(numFQDN/2-6)
		for k := 1 + rng.Intn(300); k > 0 && len(rows) < n; k-- {
			r := Row{
				URLHash: rng.Uint64(), IP: netsim.IP(rng.Uint32()),
				FQDN: uint32(numFQDN/2 + rng.Intn(numFQDN/2)), Publisher: pub,
				User: user, Day: uint16(len(rows) / 50), Country: country,
				Flags: uint8(rng.Intn(16)),
			}
			if narrow {
				r.URLHash = uint64(rng.Intn(20))
				r.IP = netsim.IP(1 + rng.Intn(12))
				r.FQDN = uint32(fqdnBase + rng.Intn(6))
			}
			if rng.Intn(3) != 0 {
				r.RefFQDN = uint32(1 + rng.Intn(numFQDN-1))
			}
			if rng.Intn(8) == 0 {
				pub = int32(rng.Intn(numPub))
			}
			switch x := rng.Intn(10); {
			case x < 2:
				r.Class = ClassABP
			case finalClasses && x == 2:
				r.Class = ClassSemiReferrer
			case finalClasses && x == 3:
				r.Class = ClassSemiKeyword
			}
			rows = append(rows, r)
		}
	}
	return ds, rows
}

// TestKernelsMatchRowOracle is the kernel-equivalence property: over
// random datasets, every projected report kernel agrees with its row
// oracle on every store backend, and LiveSemi fed the rows in random
// epochs labels every row exactly as one one-shot run does on both
// appendable backends (the live collector's wide and compressed memory
// stores).
func TestKernelsMatchRowOracle(t *testing.T) {
	const chunkRows = 256
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frame, rows := oracleDataset(rng, 1500+rng.Intn(2000), true)
		for name, st := range projVariants(t, rows, chunkRows) {
			ds := *frame
			ds.Store = st
			for _, k := range []struct {
				kernel string
				got    any
				want   any
			}{
				{"Table2", ComputeTable2(&ds), rowTable2(&ds)},
				{"PerSiteCounts", PerSiteCounts(&ds), rowPerSiteCounts(&ds)},
				{"TopTrackingTLDs", TopTrackingTLDs(&ds, 5), rowTopTrackingTLDs(&ds, 5)},
				{"TopTrackingTLDs/all", TopTrackingTLDs(&ds, 0), rowTopTrackingTLDs(&ds, 0)},
				{"Score", Score(&ds), rowScore(&ds)},
				{"ComputeStats", ComputeStats(&ds), rowComputeStats(&ds)},
			} {
				if !reflect.DeepEqual(k.got, k.want) {
					t.Errorf("seed %d %s %s:\n got %+v\nwant %+v", seed, name, k.kernel, k.got, k.want)
				}
			}
		}

		// LiveSemi fed random epochs against one one-shot run over the
		// same stage-1 rows.
		frame, rows = oracleDataset(rng, 1500+rng.Intn(2000), false)
		want := semiReference(t, frame, rows)
		for name, mk := range map[string]func() *MemStore{
			"mem/wide":       func() *MemStore { return NewMemStoreChunked(chunkRows) },
			"mem/compressed": func() *MemStore { return NewMemStoreCompressed(chunkRows) },
		} {
			st := mk()
			live := *frame
			live.Store = st
			ls := NewLiveSemi(&live, 1+rng.Intn(3))
			for off := 0; off < len(rows); {
				end := off + 1 + rng.Intn(len(rows)/3)
				if end > len(rows) {
					end = len(rows)
				}
				for _, r := range rows[off:end] {
					st.Append(r)
				}
				off = end
				ls.Extend()
			}
			ls.Close()
			for i, r := range live.Rows() {
				if r != want[i] {
					t.Fatalf("seed %d %s LiveSemi: row %d class %v, one-shot %v", seed, name, i, r.Class, want[i].Class)
				}
			}
		}
	}
}

// TestTable2MatchesSetOracle is the Table 2 index property: over
// random datasets the method-mask kernel equals the hash-set oracle
// field for field on every sealed backend (wide, compressed, raw and
// compressed spill), and after every epoch of a live append stream
// whose fixpoint flips clean rows to semi. Interners carry ids no row
// uses, as merged interners do.
func TestTable2MatchesSetOracle(t *testing.T) {
	const chunkRows = 256
	check := func(where string, ds *Dataset) {
		t.Helper()
		if got, want := ComputeTable2(ds), setTable2(ds); got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", where, got, want)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frame, rows := oracleDataset(rng, 1000+rng.Intn(3000), true)
		for i := 0; i < 50; i++ {
			frame.FQDNs.ID(fmt.Sprintf("unused%d.u%d.example", i, i%3))
		}
		for name, st := range projVariants(t, rows, chunkRows) {
			ds := *frame
			ds.Store = st
			check(fmt.Sprintf("seed %d %s", seed, name), &ds)
		}

		frame, rows = oracleDataset(rng, 1000+rng.Intn(3000), false)
		for name, st := range map[string]*MemStore{
			"live/wide":       NewMemStoreChunked(chunkRows),
			"live/compressed": NewMemStoreCompressed(chunkRows),
		} {
			live := *frame
			live.Store = st
			ls := NewLiveSemi(&live, 2)
			flips := 0
			for off, epoch := 0, 0; off < len(rows); epoch++ {
				end := min(off+1+rng.Intn(len(rows)/4), len(rows))
				for _, r := range rows[off:end] {
					st.Append(r)
				}
				off = end
				flips += len(ls.Extend())
				check(fmt.Sprintf("seed %d %s epoch %d", seed, name, epoch), &live)
			}
			ls.Close()
			if flips == 0 {
				t.Fatalf("seed %d %s: the live stream never flipped a row", seed, name)
			}
		}
	}
}
