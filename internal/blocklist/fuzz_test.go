package blocklist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"crossborder/internal/webgraph"
)

// TestParseNeverPanics: filter lists come from the outside world; any
// line may be malformed. Parse must degrade to per-line errors, never
// panic, and the surviving rules must still match safely.
func TestParseNeverPanics(t *testing.T) {
	f := func(lines []string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		l, _ := Parse("fuzz", strings.Join(lines, "\n"))
		// Whatever survived parsing must be matchable without panics.
		l.Match(Request{URL: "https://example.com/x?y=1", PageDomain: "page.com"})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMatchArbitraryURLs throws random URL-ish strings at a realistic
// rule set.
func TestMatchArbitraryURLs(t *testing.T) {
	l := mustParse(t, strings.Join([]string{
		"||tracker.com^$third-party",
		"/adserv/*",
		"|https://exact.test/pixel|",
		"@@||tracker.com/allow^",
		"||wide.org^$domain=a.com|~b.a.com",
	}, "\n"))
	rng := rand.New(rand.NewSource(7))
	alphabet := "abc.:/?&=%|^*$@-_~#"
	for i := 0; i < 5000; i++ {
		n := rng.Intn(60)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", sb.String(), r)
				}
			}()
			l.Match(Request{URL: sb.String(), PageDomain: "page.com"})
		}()
	}
}

// TestRuleMatchSubsetProperty: a rule with a $third-party restriction
// matches a subset of what the unrestricted rule matches.
func TestRuleMatchSubsetProperty(t *testing.T) {
	wide := mustParse(t, "||sub.example.net^")
	narrow := mustParse(t, "||sub.example.net^$third-party")
	f := func(path uint16, thirdParty bool) bool {
		page := "sub.example.net"
		if thirdParty {
			page = "other.org"
		}
		q := Request{
			URL:        "https://sub.example.net/p" + string(rune('a'+path%26)),
			PageDomain: page,
		}
		if narrow.Match(q) && !wide.Match(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fuzzVocab is the domain vocabulary FuzzHostRules builds rules, hosts
// and pages from: plain and multi-part-suffix domains, the substrings
// of "https" that a search of the URL would find inside its scheme,
// and hosts Hostname rewrites (upper case, a port, user info).
var fuzzVocab = []string{
	"a.com", "sub.a.com", "b.com", "x.co.uk", "ads.example.com", "example.com",
	"s", "tps", "https", "ps", "Ads.Example.com", "x.com:8080", "a@b.com",
}

// FuzzHostRules holds the per-host compiled matcher to the interpreter:
// wherever HostRules.Exact holds for a request (and its path starts
// the URL's path, query or fragment), HostRules.Match with the
// request's third-party bit must equal List.Match on the full URL,
// whose host may be spelled in any case that lower-cases to the
// compiled one.
// Rules are lines of a generated list plus rules built from the fuzz
// bytes (exceptions, $third-party and ~third-party, $domain=a|~b, |
// end anchors, * and ^) plus free rule text; hosts and pages are fuzz
// strings with an optional vocabulary suffix.
//
// Run with: go test -fuzz FuzzHostRules -fuzzminimizetime 1s ./internal/blocklist/
func FuzzHostRules(f *testing.F) {
	g := webgraph.Build(rand.New(rand.NewSource(1)), webgraph.Config{}.Scale(0.02))
	el, ep := Generate(rand.New(rand.NewSource(2)), g, Coverage{})
	var generated []string
	vocab := append([]string(nil), fuzzVocab...)
	for _, line := range strings.Split(el+ep, "\n") {
		if strings.HasPrefix(line, "||") {
			generated = append(generated, line)
			d := line[2:]
			d = d[:strings.IndexAny(d, "/^")]
			vocab = append(vocab, d, "www."+d)
		}
	}
	// The traps of Exact: a generic rule, hosts that Hostname rewrites,
	// hosts found inside "https://", and hosts whose lower-case form
	// has another byte length.
	f.Add("/x\n||a.com^", []byte{}, "", uint8(2), "/x", "p.com", uint8(255))
	f.Add("||ads.example.com/p", []byte{}, "", uint8(10), "/p", "p.com", uint8(255))
	f.Add("||com^$third-party", []byte{}, "", uint8(11), "/", "a.com", uint8(255))
	f.Add("||a@b.com^", []byte{}, "", uint8(12), "", "b.com", uint8(255))
	f.Add("||s/x", []byte{}, "", uint8(6), "/x", "p.com", uint8(255))
	f.Add("||tps/p", []byte{}, "", uint8(7), "/p", "p.com", uint8(255))
	f.Add("", []byte{0x80, 3, 0x11, 4, 1, 2, 3, 4, 0x4a, 9, 1, 2, 0x03, 0x68, 1, 0}, "x.", uint8(14), "/ad?q", "Sub.A.com", uint8(1))
	f.Add("||i.com/ab", []byte{}, "\u0130.com", uint8(255), "/ab", "p.com", uint8(255))
	f.Add("||k.com/ab|", []byte{}, "\u212a.com", uint8(255), "/ab", "k.com", uint8(255))
	f.Add("||i.com^", []byte{0x80, 1}, "\u0130.", uint8(0), "/x?y", "\u0130.com", uint8(0))
	f.Fuzz(func(t *testing.T, text string, spec []byte, host string, hostSel uint8, path, page string, pageSel uint8) {
		if int(hostSel) < len(vocab) {
			host += vocab[hostSel]
		}
		if int(pageSel) < len(vocab) {
			page += vocab[pageSel]
		}
		l, _ := Parse("fuzz", text+"\n"+fuzzRules(spec, generated, vocab))
		lower := strings.ToLower(host)
		hr := l.ForHost(lower)
		if !hr.Exact || path != "" && !strings.ContainsRune("/?#", rune(path[0])) {
			return
		}
		q := Request{URL: "https://" + host + path, PageDomain: page}
		third := webgraph.ETLDPlusOne(lower) != webgraph.ETLDPlusOne(page)
		if got, want := hr.Match(path, third, strings.ToLower(page)), l.Match(q); got != want {
			t.Fatalf("host %q path %q page %q: compiled %v, List.Match %v", host, path, page, got, want)
		}
	})
}

// fuzzRules decodes spec into filter-list lines, a few bytes a rule:
// a flag byte, a vocabulary byte, then a pattern length and pattern
// bytes; flag-selected options read further bytes.
func fuzzRules(spec []byte, generated, vocab []string) string {
	const patAlpha = "/ad?=^*.x-1|"
	next := func() int {
		if len(spec) == 0 {
			return 0
		}
		b := spec[0]
		spec = spec[1:]
		return int(b)
	}
	var sb strings.Builder
	for len(spec) > 0 {
		flags := next()
		if flags&0x80 != 0 {
			sb.WriteString(generated[next()%len(generated)] + "\n")
			continue
		}
		if flags&1 != 0 {
			sb.WriteString("@@")
		}
		switch flags >> 1 & 3 {
		case 0, 1:
			sb.WriteString("||" + strings.ToLower(vocab[next()%len(vocab)]))
		case 2:
			sb.WriteString("|https://")
		}
		for n := next() % 6; n > 0; n-- {
			sb.WriteByte(patAlpha[next()%len(patAlpha)])
		}
		if flags&8 != 0 {
			sb.WriteByte('|')
		}
		var opts []string
		switch flags >> 4 & 3 {
		case 1:
			opts = append(opts, "third-party")
		case 2:
			opts = append(opts, "~third-party")
		}
		if flags&0x40 != 0 {
			opts = append(opts, "domain="+vocab[next()%len(vocab)]+"|~"+vocab[next()%len(vocab)])
		}
		if len(opts) > 0 {
			sb.WriteString("$" + strings.Join(opts, ","))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
