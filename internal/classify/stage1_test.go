package classify

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crossborder/internal/blocklist"
	"crossborder/internal/browser"
	"crossborder/internal/rtb"
	"crossborder/internal/webgraph"
)

// teeSink forwards the capture stream to a shard and records every
// request, so a test can rebuild each row's URL and page.
type teeSink struct {
	sh   *Shard
	reqs []browser.Event
}

func (s *teeSink) OnVisit(u *browser.User, p *webgraph.Publisher, at time.Time) {
	s.sh.OnVisit(u, p, at)
}

func (s *teeSink) OnRequest(ev browser.Event) {
	s.sh.OnRequest(ev)
	s.reqs = append(s.reqs, ev)
}

// stage1Stream runs a seed-1, scale-0.02 simulation through shard 0 of
// a fresh one-shard collector and returns the collector and the
// recorded requests, in the shard's row order.
func stage1Stream(t testing.TB) (*ShardedCollector, []browser.Event) {
	t.Helper()
	g, srv, el, ep := shardRigScaled(t, 1, 0.02)
	users := browser.MakeUsers([]browser.CountryCount{
		{Country: "DE", Users: 4}, {Country: "ES", Users: 3}, {Country: "BR", Users: 3},
	})
	sim := browser.NewSimulator(g, srv, browser.Config{VisitsPerUser: 30})
	sc := NewShardedCollector(g, el, ep, start, 1)
	tee := &teeSink{sh: sc.Shard(0)}
	sim.Run(1, users, tee)
	return sc, tee.reqs
}

// shardRows returns the shard's captured rows in capture order.
func shardRows(sh *Shard) []Row {
	var rows []Row
	for _, c := range sh.caps {
		rows = append(rows, c.rows...)
	}
	return rows
}

// checkStage1 holds every captured row's ClassABP bit to the
// interpreted verdict, EasyList or EasyPrivacy List.Match on the row's
// rebuilt URL and page.
func checkStage1(t *testing.T, sc *ShardedCollector, reqs []browser.Event) (abp int) {
	t.Helper()
	rows := shardRows(sc.Shard(0))
	if len(rows) != len(reqs) {
		t.Fatalf("%d rows for %d requests", len(rows), len(reqs))
	}
	for i, ev := range reqs {
		q := blocklist.Request{URL: "https://" + ev.Call.FQDN + ev.Call.Path, PageDomain: ev.Publisher.Domain}
		want := sc.easylist.Match(q) || sc.easyprivacy.Match(q)
		if got := rows[i].Class == ClassABP; got != want {
			t.Fatalf("row %d (%s, page %s): ABP %v, List.Match %v", i, q.URL, q.PageDomain, got, want)
		}
		if want {
			abp++
		}
	}
	return abp
}

// TestStage1MatchesListMatch: the compiled per-host stage 1 labels a
// simulated crawl, and a hand-built live stream whose FQDNs and paths
// take the interpreted fallback, exactly as List.Match does.
func TestStage1MatchesListMatch(t *testing.T) {
	sc, reqs := stage1Stream(t)
	if abp := checkStage1(t, sc, reqs); abp == 0 || abp == len(reqs) {
		t.Fatalf("%d of %d rows ABP: the crawl must exercise both verdicts", abp, len(reqs))
	}

	// A live stream: uploaded FQDNs in any case, with ports and user
	// info, and paths that do not start with '/', '?' or '#'. Blocked
	// hosts come from the crawl so the fallback sees both verdicts.
	var blocked []string
	seen := map[string]bool{}
	for i, r := range shardRows(sc.Shard(0)) {
		if f := reqs[i].Call.FQDN; r.Class == ClassABP && !seen[f] && len(blocked) < 4 {
			seen[f] = true
			blocked = append(blocked, f)
		}
	}
	// Hosts that occur inside "https://" ("s", "tps") are exact: the
	// interpreter anchors domain rules at the host's position, not at
	// the first occurrence of its name.
	inexact := []string{"Ads.Example.com", "x.com:8080", "a@b.com"}
	hosts := append([]string{"s", "tps"}, inexact...)
	for _, f := range blocked {
		hosts = append(hosts, f, strings.ToUpper(f), f+":8080", "user@"+f, "www."+f)
	}
	paths := []string{"", "img.gif", "/", "/ads?x=1", "?q", "#frag", ".evil.org/x", "@evil.org/x", "&x"}
	pubs := []*webgraph.Publisher{{Domain: "news.example.org"}, {Domain: "Shop.Example.COM"}}
	if len(blocked) > 0 {
		pubs = append(pubs, &webgraph.Publisher{Domain: blocked[0]})
	}
	live := NewShardedCollector(sc.graph, sc.easylist, sc.easyprivacy, start, 1)
	u := &browser.User{ID: 1, Country: "DE"}
	var stream []browser.Event
	for _, p := range pubs {
		live.Shard(0).OnVisit(u, p, start)
		for _, h := range hosts {
			for _, path := range paths {
				ev := browser.Event{User: u, Publisher: p, Call: rtb.Call{FQDN: h, Path: path}, At: start}
				live.Shard(0).OnRequest(ev)
				stream = append(stream, ev)
			}
		}
	}
	if abp := checkStage1(t, live, stream); abp == 0 || abp == len(stream) {
		t.Fatalf("%d of %d live rows ABP: the stream must exercise both verdicts", abp, len(stream))
	}
	for _, h := range inexact {
		if m := live.Shard(0).meta[h]; m.easylist.Exact || m.easyprivacy.Exact {
			t.Errorf("host %q: compiled rules claim exactness; it must take the fallback", h)
		}
	}
}

// TestShardStateBoundedByHosts: a shard's per-host and per-publisher
// state grows with the hosts and publishers it has seen, not with the
// distinct URLs requested from them.
func TestShardStateBoundedByHosts(t *testing.T) {
	g, _, el, ep := shardRig(t, 3)
	sc := NewShardedCollector(g, el, ep, start, 1)
	sh := sc.Shard(0)
	u := &browser.User{ID: 1, Country: "DE"}
	p := &webgraph.Publisher{Domain: "news.example.org"}
	sh.OnVisit(u, p, start)
	const n = 50000
	for i := 0; i < n; i++ {
		sh.OnRequest(browser.Event{
			User: u, Publisher: p, At: start,
			Call: rtb.Call{FQDN: "px.tracker.example", Path: fmt.Sprintf("/p%d?uid=%d", i, i), HasArgs: true},
		})
	}
	if got := len(shardRows(sh)); got != n {
		t.Fatalf("captured %d rows, want %d", got, n)
	}
	if len(sh.meta) != 1 {
		t.Errorf("per-host state holds %d entries, want 1", len(sh.meta))
	}
	if len(sh.pubs) != 1 || len(sh.pubMeta) != 1 {
		t.Errorf("per-publisher state holds %d publishers and %d metas, want 1 each", len(sh.pubs), len(sh.pubMeta))
	}
}

// stage1Blocked keeps BenchmarkStage1's verdicts live.
var stage1Blocked int

// BenchmarkStage1 times stage 1 over one request stream recorded from a
// scale-0.02 crawl, one op per pass. compiled runs the shard's stage-1
// call (its per-host state warm after the first pass); interpreted runs
// List.Match on both lists per request, on the URL string. CI gates
// compiled as a same-run ratio of interpreted.
func BenchmarkStage1(b *testing.B) {
	sc, reqs := stage1Stream(b)
	b.Run("compiled", func(b *testing.B) {
		sh := NewShardedCollector(sc.graph, sc.easylist, sc.easyprivacy, start, 1).Shard(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ev := range reqs {
				if sh.stage1(sh.fqdnMetaFor(ev.Call.FQDN), sh.pubID(ev.Publisher), ev.Call.FQDN, ev.Call.Path) {
					stage1Blocked++
				}
			}
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, ev := range reqs {
				q := blocklist.Request{URL: "https://" + ev.Call.FQDN + ev.Call.Path, PageDomain: ev.Publisher.Domain}
				if sc.easylist.Match(q) || sc.easyprivacy.Match(q) {
					stage1Blocked++
				}
			}
		}
	})
}
