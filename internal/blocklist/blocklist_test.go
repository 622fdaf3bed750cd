package blocklist

import (
	"math/rand"
	"strings"
	"testing"

	"crossborder/internal/webgraph"
)

func mustParse(t *testing.T, text string) *List {
	t.Helper()
	l, errs := Parse("test", text)
	if len(errs) != 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return l
}

func req(url, page string) Request { return Request{URL: url, PageDomain: page} }

func TestDomainAnchor(t *testing.T) {
	l := mustParse(t, "||tracker.com^")
	if !l.Match(req("https://tracker.com/x", "site.com")) {
		t.Error("exact domain must match")
	}
	if !l.Match(req("https://sub.tracker.com/x", "site.com")) {
		t.Error("subdomain must match")
	}
	if l.Match(req("https://nottracker.com/x", "site.com")) {
		t.Error("suffix-overlap domain must not match")
	}
	if l.Match(req("https://tracker.com.evil.org/x", "site.com")) {
		t.Error("domain as prefix of other host must not match")
	}
}

func TestDomainAnchorWithPath(t *testing.T) {
	l := mustParse(t, "||ads.example.com/banner^")
	if !l.Match(req("https://ads.example.com/banner?x=1", "p.com")) {
		t.Error("path + separator(?) must match")
	}
	if !l.Match(req("https://ads.example.com/banner", "p.com")) {
		t.Error("^ at end of URL must match")
	}
	if l.Match(req("https://ads.example.com/bannerx", "p.com")) {
		t.Error("^ must not match an alphanumeric")
	}
}

func TestPlainSubstring(t *testing.T) {
	l := mustParse(t, "/adserv/")
	if !l.Match(req("https://x.com/adserv/slot?a=1", "p.com")) {
		t.Error("substring must match anywhere")
	}
	if l.Match(req("https://x.com/ads/slot", "p.com")) {
		t.Error("partial token must not match")
	}
}

func TestWildcard(t *testing.T) {
	l := mustParse(t, "/banner/*/ad^")
	if !l.Match(req("https://x.com/banner/123/ad?x", "p.com")) {
		t.Error("wildcard gap must match")
	}
	if l.Match(req("https://x.com/banner/ad", "p.com")) {
		// Pattern requires both /banner/ and /ad with content between;
		// "/banner/ad" has the second token overlapping the first.
		t.Log("edge: overlapping tokens rejected as expected")
	}
	if l.Match(req("https://x.com/ad/123/banner/", "p.com")) {
		t.Error("tokens out of order must not match")
	}
}

func TestStartEndAnchors(t *testing.T) {
	l := mustParse(t, "|https://exact.com/pixel|")
	if !l.Match(req("https://exact.com/pixel", "p.com")) {
		t.Error("exact URL must match")
	}
	if l.Match(req("https://exact.com/pixel?x=1", "p.com")) {
		t.Error("end anchor must reject longer URL")
	}
	if l.Match(req("http://pre.https://exact.com/pixel", "p.com")) {
		t.Error("start anchor must reject offset match")
	}
}

func TestThirdPartyOption(t *testing.T) {
	l := mustParse(t, "||tracker.com^$third-party")
	if !l.Match(req("https://tracker.com/x", "site.com")) {
		t.Error("third-party request must match")
	}
	if l.Match(req("https://tracker.com/x", "tracker.com")) {
		t.Error("first-party request must not match $third-party rule")
	}
	lf := mustParse(t, "||self.com^$~third-party")
	if !lf.Match(req("https://self.com/x", "self.com")) {
		t.Error("first-party must match ~third-party rule")
	}
	if lf.Match(req("https://self.com/x", "other.com")) {
		t.Error("third-party must not match ~third-party rule")
	}
}

func TestDomainOption(t *testing.T) {
	l := mustParse(t, "||w.com^$domain=news.com|~sports.news.com")
	if !l.Match(req("https://w.com/x", "news.com")) {
		t.Error("included domain must match")
	}
	if !l.Match(req("https://w.com/x", "blog.news.com")) {
		t.Error("subdomain of included domain must match")
	}
	if l.Match(req("https://w.com/x", "sports.news.com")) {
		t.Error("excluded domain must not match")
	}
	if l.Match(req("https://w.com/x", "other.com")) {
		t.Error("unrelated domain must not match when domain= present")
	}
}

func TestExceptionRules(t *testing.T) {
	l := mustParse(t, "||ads.com^\n@@||ads.com/allowed^")
	if !l.Match(req("https://ads.com/banner", "p.com")) {
		t.Error("non-excepted path must match")
	}
	if l.Match(req("https://ads.com/allowed/x", "p.com")) {
		t.Error("exception must override block")
	}
}

func TestCaseInsensitive(t *testing.T) {
	l := mustParse(t, "||Tracker.COM/PixEl^")
	if !l.Match(req("https://tracker.com/pixel?x", "p.com")) {
		t.Error("matching must be case-insensitive")
	}
}

// TestDomainAnchorHostChangesLengthWhenLowered: a host whose lower-case
// form has another byte length (strings.ToLower maps the two-byte İ
// and the three-byte Kelvin sign to a plain i and k) must anchor the
// pattern just past the host in the URL as written.
func TestDomainAnchorHostChangesLengthWhenLowered(t *testing.T) {
	for _, c := range []struct{ rule, url string }{
		{"||i.com/ab", "https://\u0130.com/ab"},
		{"||k.com/ab", "https://\u212a.com/ab"},
	} {
		l := mustParse(t, c.rule)
		if !l.Match(req(c.url, "p.com")) {
			t.Errorf("%q must block %q", c.rule, c.url)
		}
		if l.Match(req(strings.Replace(c.url, "/ab", "/xab", 1), "p.com")) {
			t.Errorf("%q must anchor its path right after the host of %q", c.rule, c.url)
		}
	}
}

func TestCommentsAndHeaders(t *testing.T) {
	l := mustParse(t, "[Adblock Plus 2.0]\n! comment\n||a.com^\n\nexample.com##.ad\n")
	if l.NumRules() != 1 {
		t.Errorf("rules = %d, want 1 (comments/cosmetic skipped)", l.NumRules())
	}
}

func TestParseErrors(t *testing.T) {
	l, errs := Parse("test", "||a.com^$bogus-option\n||^\n||ok.com^")
	if len(errs) != 2 {
		t.Fatalf("errs = %v", errs)
	}
	if l.NumRules() != 1 {
		t.Errorf("valid rules = %d", l.NumRules())
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "blocklist:") {
			t.Errorf("error %v missing context", e)
		}
	}
}

func TestResourceTypeOptionsIgnored(t *testing.T) {
	l := mustParse(t, "||a.com^$script,third-party\n||b.com^$image")
	if l.NumRules() != 2 {
		t.Fatalf("rules = %d", l.NumRules())
	}
	if !l.Match(req("https://a.com/x.js", "p.com")) {
		t.Error("script option must be accepted and ignored")
	}
}

func TestMatchAny(t *testing.T) {
	el := mustParse(t, "||ads.com^")
	ep := mustParse(t, "||metrics.com^")
	el.Name, ep.Name = "easylist", "easyprivacy"
	if name, ok := MatchAny(req("https://metrics.com/x", "p.com"), el, ep); !ok || name != "easyprivacy" {
		t.Errorf("MatchAny = %q, %v", name, ok)
	}
	if _, ok := MatchAny(req("https://clean.com/x", "p.com"), el, ep); ok {
		t.Error("clean request matched")
	}
}

func TestGenerateLists(t *testing.T) {
	g := webgraph.Build(rand.New(rand.NewSource(1)), webgraph.Config{}.Scale(0.1))
	el, ep := Generate(rand.New(rand.NewSource(2)), g, Coverage{})
	elList, errs := Parse("easylist", el)
	if len(errs) != 0 {
		t.Fatalf("easylist parse errors: %v", errs)
	}
	epList, errs := Parse("easyprivacy", ep)
	if len(errs) != 0 {
		t.Fatalf("easyprivacy parse errors: %v", errs)
	}
	if elList.NumRules() < 10 || epList.NumRules() < 10 {
		t.Errorf("lists too small: %d / %d", elList.NumRules(), epList.NumRules())
	}
	// The majors are always covered.
	if !elList.Match(req("https://pagead2.googlesyndication.com/adserv/slot?sz=1", "site.com")) {
		t.Error("google ad serving must be in easylist")
	}
	if !epList.Match(req("https://www.google-analytics.com/collect?tid=1", "site.com")) {
		t.Error("google analytics must be in easyprivacy")
	}
}

func TestGenerateCoverageGap(t *testing.T) {
	// With default coverage, a substantial share of DMP domains must be
	// missed — that is the paper's Table 2 mechanism.
	g := webgraph.Build(rand.New(rand.NewSource(3)), webgraph.Config{}.Scale(0.2))
	el, ep := Generate(rand.New(rand.NewSource(4)), g, Coverage{})
	elList, _ := Parse("easylist", el)
	epList, _ := Parse("easyprivacy", ep)

	missed, total := 0, 0
	for _, s := range g.ServicesByRole(webgraph.RoleDMP) {
		total++
		q := req("https://"+s.FQDNs[0]+"/cookiesync?uid=1", "site.com")
		if _, ok := MatchAny(q, elList, epList); !ok {
			missed++
		}
	}
	if total == 0 {
		t.Fatal("no DMPs in graph")
	}
	frac := float64(missed) / float64(total)
	if frac < 0.4 || frac > 0.95 {
		t.Errorf("DMP miss rate = %.2f, want well above half", frac)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := webgraph.Build(rand.New(rand.NewSource(5)), webgraph.Config{}.Scale(0.05))
	el1, ep1 := Generate(rand.New(rand.NewSource(6)), g, Coverage{})
	el2, ep2 := Generate(rand.New(rand.NewSource(6)), g, Coverage{})
	if el1 != el2 || ep1 != ep2 {
		t.Error("same seed must generate identical lists")
	}
}
