// Package blocklist implements an AdBlockPlus-compatible filter list
// engine: parsing of the easylist/easyprivacy rule syntax the paper's
// classification stage 1 relies on (§3.2), and matching of request URLs
// against compiled rules. Supported syntax covers what those two lists
// actually use for network rules: ||domain anchors, |start anchors,
// plain substring patterns, the * wildcard, the ^ separator, @@
// exceptions, ! comments, and the $third-party / $domain= options.
//
// List.Match interprets the lists on a full request URL and is the
// definition of a verdict. List.ForHost compiles them for one host into
// HostRules, which match a request from its path alone; the classifier
// keeps one per host it sees and falls back to Match where HostRules
// are not exact.
package blocklist

import (
	"fmt"
	"strings"

	"crossborder/internal/webgraph"
)

// Rule is one compiled filter rule.
type Rule struct {
	// Raw is the original rule text.
	Raw string
	// Exception marks @@ allow rules.
	Exception bool
	// domainAnchor holds the hostname after || ("" if the rule is not
	// domain-anchored).
	domainAnchor string
	// startAnchor marks a leading | (exact URL start).
	startAnchor bool
	// endAnchor marks a trailing | (exact URL end).
	endAnchor bool
	// tokens is the pattern split on *; consecutive tokens must appear in
	// order. A token may end with ^ meaning a separator must follow.
	tokens []string
	// thirdParty restricts the rule to third-party requests when 1, to
	// first-party when -1; 0 means no restriction.
	thirdParty int8
	// includeDomains / excludeDomains implement $domain=a.com|~b.com.
	includeDomains []string
	excludeDomains []string
}

// ParseError reports an unparsable rule line.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("blocklist: line %d %q: %s", e.Line, e.Text, e.Msg)
}

// List is a compiled filter list.
type List struct {
	Name  string
	rules []Rule
	// domainIndex maps a ||-anchored hostname to rule indices, the fast
	// path covering the vast majority of easylist rules.
	domainIndex map[string][]int
	// generic holds indices of rules without a domain anchor.
	generic []int
}

// Parse compiles filter list text. Unparsable lines are skipped and
// reported in errs; the list is still usable (this matches how ad blockers
// treat unknown syntax).
func Parse(name, text string) (*List, []error) {
	l := &List{Name: name, domainIndex: make(map[string][]int)}
	var errs []error
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
			continue // comment / header
		}
		if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
			continue // element-hiding rules don't classify network requests
		}
		r, err := compileRule(line)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Msg: err.Error()})
			continue
		}
		idx := len(l.rules)
		l.rules = append(l.rules, r)
		if r.domainAnchor != "" {
			l.domainIndex[r.domainAnchor] = append(l.domainIndex[r.domainAnchor], idx)
		} else {
			l.generic = append(l.generic, idx)
		}
	}
	return l, errs
}

// NumRules returns the number of compiled rules.
func (l *List) NumRules() int { return len(l.rules) }

func compileRule(line string) (Rule, error) {
	r := Rule{Raw: line}
	if strings.HasPrefix(line, "@@") {
		r.Exception = true
		line = line[2:]
	}
	// Split off options.
	if i := strings.LastIndexByte(line, '$'); i >= 0 && !strings.Contains(line[i:], "/") {
		opts := strings.Split(line[i+1:], ",")
		line = line[:i]
		for _, o := range opts {
			switch {
			case o == "third-party":
				r.thirdParty = 1
			case o == "~third-party":
				r.thirdParty = -1
			case strings.HasPrefix(o, "domain="):
				for _, d := range strings.Split(o[len("domain="):], "|") {
					if strings.HasPrefix(d, "~") {
						r.excludeDomains = append(r.excludeDomains, strings.ToLower(d[1:]))
					} else if d != "" {
						r.includeDomains = append(r.includeDomains, strings.ToLower(d))
					}
				}
			case o == "script", o == "image", o == "xmlhttprequest", o == "subdocument",
				o == "popup", o == "object", o == "stylesheet", o == "websocket", o == "other":
				// Resource-type options are accepted and ignored: the
				// simulator does not distinguish resource types.
			default:
				return Rule{}, fmt.Errorf("unsupported option %q", o)
			}
		}
	}
	if line == "" {
		return Rule{}, fmt.Errorf("empty pattern")
	}
	if strings.HasPrefix(line, "||") {
		rest := line[2:]
		// Domain anchor runs until the first separator-ish char.
		end := strings.IndexAny(rest, "/^*?")
		if end == -1 {
			r.domainAnchor = strings.ToLower(rest)
			rest = ""
		} else {
			r.domainAnchor = strings.ToLower(rest[:end])
			rest = rest[end:]
		}
		if r.domainAnchor == "" {
			return Rule{}, fmt.Errorf("|| with empty domain")
		}
		line = rest
	} else if strings.HasPrefix(line, "|") {
		r.startAnchor = true
		line = line[1:]
	}
	if strings.HasSuffix(line, "|") {
		r.endAnchor = true
		line = line[:len(line)-1]
	}
	r.tokens = strings.Split(line, "*")
	return r, nil
}

// isSeparator implements ABP's ^ placeholder: any character that is not a
// letter, digit, or one of _ - . %, or the end of the URL.
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_', c == '-', c == '.', c == '%':
		return false
	}
	return true
}

// matchTokens checks that tokens appear in order in s starting at pos;
// anchored requires the first token at exactly pos.
func matchTokens(s string, pos int, tokens []string, anchored, endAnchor bool) bool {
	for ti, tok := range tokens {
		if tok == "" {
			anchored = false
			continue
		}
		idx := matchToken(s, pos, tok, anchored)
		if idx < 0 {
			return false
		}
		pos = idx
		anchored = false
		if endAnchor && ti == len(tokens)-1 {
			// Last literal must end at end of URL (a trailing ^ in the
			// token still allows the virtual end-separator).
			if pos != len(s) && !(strings.HasSuffix(tok, "^") && pos == len(s)) {
				return false
			}
		}
	}
	return true
}

// matchToken finds token tok (which may contain ^ separators) in s at or
// after pos, returning the index just past the match, or -1.
func matchToken(s string, pos int, tok string, anchored bool) int {
	for start := pos; start <= len(s); start++ {
		if anchored && start > pos {
			return -1
		}
		end, ok := matchHere(s, start, tok)
		if ok {
			return end
		}
	}
	return -1
}

func matchHere(s string, pos int, tok string) (int, bool) {
	i := pos
	for j := 0; j < len(tok); j++ {
		if tok[j] == '^' {
			if i == len(s) {
				// ^ may match the end of the URL; valid only if it is the
				// last char of the token.
				if j == len(tok)-1 {
					return i, true
				}
				return 0, false
			}
			if !isSeparator(s[i]) {
				return 0, false
			}
			i++
			continue
		}
		if i >= len(s) || lower(s[i]) != lower(tok[j]) {
			return 0, false
		}
		i++
	}
	return i, true
}

func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// Request carries the fields a network filter can see.
type Request struct {
	// URL is the full request URL.
	URL string
	// PageDomain is the registrable domain of the page initiating the
	// request (the first party).
	PageDomain string
}

// isThirdParty reports whether the request crosses registrable domains.
func (q Request) isThirdParty() bool {
	host := webgraph.Hostname(q.URL)
	return webgraph.ETLDPlusOne(host) != webgraph.ETLDPlusOne(q.PageDomain)
}

// ruleMatches applies one compiled rule. host is the request's
// lower-cased hostname and hostEnd the offset just past the host in
// q.URL, where a domain-anchored pattern continues.
func (l *List) ruleMatches(r *Rule, q Request, host string, hostEnd int) bool {
	if r.thirdParty == 1 && !q.isThirdParty() {
		return false
	}
	if r.thirdParty == -1 && q.isThirdParty() {
		return false
	}
	if len(r.includeDomains) > 0 {
		ok := false
		page := strings.ToLower(q.PageDomain)
		for _, d := range r.includeDomains {
			if page == d || strings.HasSuffix(page, "."+d) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, d := range r.excludeDomains {
		page := strings.ToLower(q.PageDomain)
		if page == d || strings.HasSuffix(page, "."+d) {
			return false
		}
	}
	url := q.URL
	if r.domainAnchor != "" {
		if host != r.domainAnchor && !strings.HasSuffix(host, "."+r.domainAnchor) {
			return false
		}
		return matchTokens(url, hostEnd, r.tokens, true, r.endAnchor)
	}
	if r.startAnchor {
		return matchTokens(url, 0, r.tokens, true, r.endAnchor)
	}
	return matchTokens(url, 0, r.tokens, false, r.endAnchor)
}

// Match reports whether the request is blocked by the list: some block
// rule matches and no exception rule does.
func (l *List) Match(q Request) bool {
	hostStart, hostEnd := webgraph.HostSpan(q.URL)
	host := strings.ToLower(q.URL[hostStart:hostEnd])
	matched := false

	tryRule := func(idx int) bool {
		r := &l.rules[idx]
		if l.ruleMatches(r, q, host, hostEnd) {
			if r.Exception {
				return true // exception wins immediately
			}
			matched = true
		}
		return false
	}

	// Domain-indexed rules for the host and its parent domains.
	h := host
	for {
		for _, idx := range l.domainIndex[h] {
			if tryRule(idx) {
				return false
			}
		}
		dot := strings.IndexByte(h, '.')
		if dot < 0 {
			break
		}
		h = h[dot+1:]
	}
	for _, idx := range l.generic {
		if tryRule(idx) {
			return false
		}
	}
	return matched
}

// HostRules is a list's stage-1 matcher compiled for one request host:
// the domain-indexed rules of the host and of its parent domains, in
// the order Match tries them. It answers a request from its path alone,
// with no URL string and no hostname parsing.
type HostRules struct {
	rules []*Rule
	// Exact reports that Match(path, thirdParty, page) equals
	// List.Match(Request{URL: "https://" + host + path, PageDomain: p})
	// for every path that is empty or starts with '/', '?' or '#', where
	// page is strings.ToLower(p) and thirdParty is whether ETLDPlusOne of
	// the host and of p differ. It needs a list without generic rules
	// (Match tries those on the whole URL) and a host that the URL's
	// Hostname reproduces. The URL may spell the host in any case that
	// lower-cases to it.
	Exact bool
}

// ForHost compiles the list for requests to host.
func (l *List) ForHost(host string) HostRules {
	var hr HostRules
	for h := host; ; {
		for _, idx := range l.domainIndex[h] {
			hr.rules = append(hr.rules, &l.rules[idx])
		}
		dot := strings.IndexByte(h, '.')
		if dot < 0 {
			break
		}
		h = h[dot+1:]
	}
	// Hostname returns host itself only for a lower-case host without
	// URL delimiters.
	hr.Exact = len(l.generic) == 0 &&
		host == strings.ToLower(host) && !strings.ContainsAny(host, "/?#@:")
	return hr
}

// Match applies the compiled rules to a request for path, as List.Match
// would; see Exact for when the two agree. page is the lower-cased page
// domain.
func (h HostRules) Match(path string, thirdParty bool, page string) bool {
	matched := false
	for _, r := range h.rules {
		if r.thirdParty == 1 && !thirdParty || r.thirdParty == -1 && thirdParty {
			continue
		}
		if len(r.includeDomains) > 0 && !underAny(page, r.includeDomains) || underAny(page, r.excludeDomains) {
			continue
		}
		if !matchTokens(path, 0, r.tokens, true, r.endAnchor) {
			continue
		}
		if r.Exception {
			return false
		}
		matched = true
	}
	return matched
}

// underAny reports whether page is one of domains or a subdomain of one.
func underAny(page string, domains []string) bool {
	for _, d := range domains {
		if page == d || strings.HasSuffix(page, "."+d) {
			return true
		}
	}
	return false
}

// MatchAny reports whether any of the lists matches the request, naming
// the first list that does.
func MatchAny(q Request, lists ...*List) (string, bool) {
	for _, l := range lists {
		if l.Match(q) {
			return l.Name, true
		}
	}
	return "", false
}
