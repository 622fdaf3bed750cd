// Package webgraph models the synthetic web the simulated users browse:
// first-party publishers with topics and Zipf popularity, third-party
// services (ad networks, exchanges, DSPs, trackers, CDNs, widgets), and
// the embedding relationships between them. It is the stand-in for the
// real web the paper's 350 extension users visited.
package webgraph

import "strings"

// multiPartSuffixes is the small public-suffix subset the reproduction
// needs. The paper extracts "TLD" (really eTLD+1, e.g. googlesyndication.com)
// from FQDNs; a handful of two-level suffixes is enough for the synthetic
// namespace plus realistic external names.
var multiPartSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true,
	"com.au": true, "net.au": true,
	"com.br": true, "co.jp": true, "co.kr": true,
	"com.cn": true, "com.tw": true, "com.sg": true,
	"co.za": true, "com.mx": true, "com.ar": true,
}

// ETLDPlusOne returns the registrable domain (the paper's "TLD" unit) for
// a hostname: the public suffix plus one label. It returns the input
// unchanged when it has too few labels.
func ETLDPlusOne(host string) string {
	host = strings.TrimSuffix(strings.ToLower(host), ".")
	labels := strings.Split(host, ".")
	if len(labels) <= 2 {
		return host
	}
	lastTwo := strings.Join(labels[len(labels)-2:], ".")
	if multiPartSuffixes[lastTwo] {
		if len(labels) < 3 {
			return host
		}
		return strings.Join(labels[len(labels)-3:], ".")
	}
	return lastTwo
}

// Hostname extracts the host part from a URL-ish string without requiring
// a full URL parse: scheme and path are stripped if present.
func Hostname(rawURL string) string {
	start, end := HostSpan(rawURL)
	return strings.ToLower(rawURL[start:end])
}

// HostSpan returns the byte range of the host inside rawURL: after the
// scheme and any user info, before the path, query, fragment or port.
// Hostname is that range lower-cased, which may differ in byte length.
func HostSpan(rawURL string) (start, end int) {
	if i := strings.Index(rawURL, "://"); i >= 0 {
		start = i + 3
	}
	end = len(rawURL)
	if i := strings.IndexAny(rawURL[start:], "/?#"); i >= 0 {
		end = start + i
	}
	if i := strings.IndexByte(rawURL[start:end], '@'); i >= 0 {
		start += i + 1
	}
	if i := strings.IndexByte(rawURL[start:end], ':'); i >= 0 {
		end = start + i
	}
	return start, end
}
