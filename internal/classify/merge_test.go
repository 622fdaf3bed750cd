package classify

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"crossborder/internal/browser"
	"crossborder/internal/geodata"
	"crossborder/internal/webgraph"
)

// oracleMerger is the merge the per-source remap tables replaced, kept
// as their oracle: every row re-interns its FQDN and referrer strings
// and probes the publisher and country indexes.
type oracleMerger struct {
	ds         *Dataset
	countryIdx map[geodata.Country]uint8
	pubIdx     map[*webgraph.Publisher]int32
}

func newOracleMerger(sink *MemStore) *oracleMerger {
	return &oracleMerger{
		ds:         &Dataset{Store: sink, FQDNs: NewInterner(), Start: start},
		countryIdx: make(map[geodata.Country]uint8),
		pubIdx:     make(map[*webgraph.Publisher]int32),
	}
}

func (m *oracleMerger) pubID(p *webgraph.Publisher) int32 {
	pid, ok := m.pubIdx[p]
	if !ok {
		pid = int32(len(m.ds.Publishers))
		m.pubIdx[p] = pid
		m.ds.Publishers = append(m.ds.Publishers, p)
	}
	return pid
}

func (m *oracleMerger) appendCapture(sh *Shard, idx int) {
	ds := m.ds
	cap := &sh.caps[idx]
	for _, pid := range cap.visits {
		m.pubID(sh.pubs[pid])
	}
	ds.Visits += len(cap.visits)
	for _, r := range cap.rows {
		r.FQDN = ds.FQDNs.ID(sh.interner.Str(r.FQDN))
		r.RefFQDN = ds.FQDNs.ID(sh.interner.Str(r.RefFQDN))
		r.Publisher = m.pubID(sh.pubs[r.Publisher])
		cc := sh.countries[r.Country]
		cID, ok := m.countryIdx[cc]
		if !ok {
			cID = uint8(len(ds.Countries))
			m.countryIdx[cc] = cID
			ds.Countries = append(ds.Countries, cc)
		}
		r.Country = cID
		ds.Store.Append(r)
	}
}

// recorder keeps a simulation's capture stream per user, in emit order.
type recorder map[int32][]func(browser.Sink)

func (rec recorder) OnVisit(u *browser.User, p *webgraph.Publisher, at time.Time) {
	rec[int32(u.ID)] = append(rec[int32(u.ID)], func(s browser.Sink) { s.OnVisit(u, p, at) })
}

func (rec recorder) OnRequest(ev browser.Event) {
	rec[int32(ev.User.ID)] = append(rec[int32(ev.User.ID)], func(s browser.Sink) { s.OnRequest(ev) })
}

// TestMergerMatchesReintern: captures fed over several shards in random
// epochs — a user's stream cut at random points and resumed on another
// shard, so requests arrive whose visit went to a different shard —
// merge through the remap tables exactly as through the per-row
// re-intern oracle: rows, interner, publishers and countries identical,
// including across a NewMergerOver resume mid-stream.
func TestMergerMatchesReintern(t *testing.T) {
	g, srv, el, ep := shardRig(t, 11)
	users := browser.MakeUsers([]browser.CountryCount{
		{Country: "DE", Users: 4}, {Country: "ES", Users: 3}, {Country: "FR", Users: 3}, {Country: "BR", Users: 2},
	})
	rec := recorder{}
	browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 12}).Run(5, users, rec)

	ids := make([]int32, 0, len(rec))
	for u := range rec {
		ids = append(ids, u)
	}
	slices.Sort(ids)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 2 + rng.Intn(3)
		sc := NewShardedCollector(g, el, ep, start, workers)
		m := NewMerger(start, NewMemStoreChunked(64), 0)
		oracle := newOracleMerger(NewMemStoreChunked(64))
		next := make(map[int32]int, len(rec))
		left := len(ids)
		resumed := false
		for epoch := 0; left > 0; epoch++ {
			var batch []int32
			for _, u := range ids {
				if next[u] < len(rec[u]) && rng.Intn(3) > 0 {
					batch = append(batch, u)
				}
			}
			// User j of the epoch goes to shard (j+epoch) mod workers, so
			// users move between shards from one epoch to the next.
			type ref struct{ sh, idx int }
			refs := make([]ref, len(batch))
			for j, u := range batch {
				w := (j + epoch) % workers
				sh := sc.Shard(w)
				refs[j] = ref{w, len(sh.caps)}
				evs := rec[u]
				end := next[u] + 1 + rng.Intn(len(evs)-next[u])
				for _, feed := range evs[next[u]:end] {
					feed(sh)
				}
				next[u] = end
				if end == len(evs) {
					left--
				}
			}
			for _, r := range refs {
				m.AppendCapture(sc.Shard(r.sh), r.idx)
				oracle.appendCapture(sc.Shard(r.sh), r.idx)
			}
			for w := 0; w < workers; w++ {
				sc.Shard(w).ResetCaptures()
			}
			if !resumed && epoch >= 2 {
				m, resumed = NewMergerOver(m.Dataset()), true
			}
		}
		if !resumed {
			t.Fatalf("seed %d: the stream ended before the merger resumed", seed)
		}

		got, want := m.Dataset(), oracle.ds
		if got.Len() == 0 {
			t.Fatalf("seed %d: nothing merged", seed)
		}
		if !slices.Equal(got.Rows(), want.Rows()) {
			t.Errorf("seed %d (%d workers): rows differ from the re-intern oracle", seed, workers)
		}
		if !slices.Equal(got.FQDNs.Strings(), want.FQDNs.Strings()) {
			t.Errorf("seed %d: interner differs from the re-intern oracle", seed)
		}
		if !slices.Equal(got.Publishers, want.Publishers) || !slices.Equal(got.Countries, want.Countries) || got.Visits != want.Visits {
			t.Errorf("seed %d: publisher, country or visit tables differ from the re-intern oracle", seed)
		}
	}
}

// TestMergerAppendRefusesOutOfTableIDs: a row naming an id past its
// source's tables is refused and appends nothing.
func TestMergerAppendRefusesOutOfTableIDs(t *testing.T) {
	m := NewMerger(start, NewMemStore(), 0)
	src := m.Source(Tables{
		FQDNs:      []string{"", "a.example"},
		Countries:  []geodata.Country{"DE"},
		Publishers: []*webgraph.Publisher{{Domain: "pub.example"}},
	})
	for _, r := range []Row{{FQDN: 2}, {RefFQDN: 2}, {Country: 1}, {Publisher: 1}, {Publisher: -1}} {
		if err := m.Append(src, r); err == nil {
			t.Errorf("row %+v accepted", r)
		}
	}
	if err := m.Append(src, Row{FQDN: 1}); err != nil {
		t.Fatal(err)
	}
	if n := m.Dataset().Len(); n != 1 {
		t.Fatalf("dataset holds %d rows, want the 1 in-table row", n)
	}
}

// BenchmarkMergerAppend merges one recorded capture (the shared bench
// crawl) into a fresh dataset through the per-source remap tables and
// through the per-row re-intern oracle.
func BenchmarkMergerAppend(b *testing.B) {
	_, order := benchCollector(b)
	hint := order[0].sh.interner.Len()
	b.Run("remap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := NewMerger(start, NewMemStore(), hint)
			for _, cr := range order {
				m.AppendCapture(cr.sh, cr.idx)
			}
		}
	})
	b.Run("lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := newOracleMerger(NewMemStore())
			m.ds.FQDNs = NewInternerSized(hint)
			for _, cr := range order {
				m.appendCapture(cr.sh, cr.idx)
			}
		}
	})
}
