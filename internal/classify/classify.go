// Package classify implements the paper's multi-stage tracking-flow
// classifier (§3.2). Stage 1 matches every third-party request against the
// easylist + easyprivacy filter lists, producing the initial list of
// tracking flows (LTF) and non-tracking flows (NTF). Stage 2 iteratively
// moves NTF requests to the LTF when their referrer is an already-detected
// tracking URL and the request URL carries arguments (the cookie-sync /
// RTB cascade signature). Stage 3 moves the remaining argument-carrying
// requests whose URL contains tracking vocabulary ("usermatch", "rtb",
// "cookiesync", ...). The combined stages roughly double detected tracking
// flows versus the lists alone (Table 2).
//
// Stage 1 runs per request on the capture path, compiled per host: each
// shard keeps, per FQDN it has seen, both lists' blocklist.HostRules
// (the domain-indexed rules of the host and its parent domains) and the
// host's eTLD+1, and per publisher the page's eTLD+1 and lower-cased
// domain. A verdict is then a few rule tests on the path plus one
// string compare for the third-party bit, with no URL string and no
// verdict cache, so per-shard state grows with hosts and publishers,
// never with paths. A request the compiled rules are not exact for
// (an uploaded FQDN with upper case, a port or user info, or a path
// that does not start the URL's path, query or fragment) falls back to
// blocklist.List.Match on the full URL, uncached.
//
// The classifier doubles as the dataset builder: it consumes the browser
// capture stream and stores each request as a compact interned row, so the
// full 7.2M-request study fits comfortably in memory.
//
// Reads are columnar and take one path. Every reader of a MemStore binds
// its chunks to a ProjChunk (ScanStoreCols, Dataset.ScanCols,
// ProjChunkAt): a kernel reads only the columns it touches and receives
// each one in the form the codec stored it — RLE runs, dictionary ids
// over a sorted dictionary, or decoded fixed-width values — plus a
// per-chunk zone map (min/max, class bitmap, distinct counts) computed
// at seal time and persisted in the block frame, so scans prune chunks
// before reading a byte of them. Row-at-a-time readers (EachRow, Rows)
// gather rows through the same projection. Every experiment kernel runs
// on this path, on every store layout.
package classify

import (
	"time"

	"crossborder/internal/geodata"
	"crossborder/internal/netsim"
	"crossborder/internal/webgraph"
)

// Class is the final label of one request.
type Class uint8

const (
	// ClassClean is a non-tracking third-party request (NTF).
	ClassClean Class = iota
	// ClassABP was matched by the easylist/easyprivacy lists (stage 1).
	ClassABP
	// ClassSemiReferrer was recovered by referrer propagation (stage 2)
	// and does not qualify under stage 3.
	ClassSemiReferrer
	// ClassSemiKeyword was recovered by the URL keyword + arguments
	// heuristic (stage 3). A row that qualifies under both heuristics
	// takes this label: stage 3 is a per-row test, so the tie-break
	// depends on neither row order nor how rows were split into epochs,
	// and every route (batch, live, merged) labels the row the same.
	ClassSemiKeyword
)

func (c Class) String() string {
	switch c {
	case ClassClean:
		return "clean"
	case ClassABP:
		return "abp"
	case ClassSemiReferrer:
		return "semi-referrer"
	case ClassSemiKeyword:
		return "semi-keyword"
	default:
		return "unknown"
	}
}

// IsTracking reports whether the class marks the request as a tracking flow.
func (c Class) IsTracking() bool { return c != ClassClean }

// IsSemi reports whether the request was recovered by the semi-automatic
// stages rather than the lists.
func (c Class) IsSemi() bool {
	return c == ClassSemiReferrer || c == ClassSemiKeyword
}

// Keywords is the empirically built tracking vocabulary of stage 3 (§3.2
// names "usermatch", "rtb", "cookiesync" as examples).
var Keywords = []string{
	"usermatch", "cookiesync", "rtb", "adserv", "bid", "pixel",
	"collect", "sync", "track",
}

// Row is one captured request in compact interned form (~40 bytes).
type Row struct {
	URLHash   uint64
	IP        netsim.IP
	FQDN      uint32 // interner id
	RefFQDN   uint32 // interner id; 0 = first-party page context
	Publisher int32  // index into Dataset.Publishers
	User      int32
	Day       uint16 // days since dataset start
	Country   uint8  // index into Dataset.Countries
	Flags     uint8
	Class     Class
}

// Flag bits of Row.Flags.
const (
	FlagHasArgs uint8 = 1 << iota
	FlagHTTPS
	FlagKeyword  // URL contains stage-3 vocabulary
	FlagTruthing // ground truth: the serving service role is tracking
)

// HasArgs reports whether the request URL carried query arguments.
func (r Row) HasArgs() bool { return r.Flags&FlagHasArgs != 0 }

// HTTPS reports whether the request was encrypted.
func (r Row) HTTPS() bool { return r.Flags&FlagHTTPS != 0 }

// HasKeyword reports whether the URL contains tracking vocabulary.
func (r Row) HasKeyword() bool { return r.Flags&FlagKeyword != 0 }

// TruthTracking reports the generator-side ground truth for the request.
func (r Row) TruthTracking() bool { return r.Flags&FlagTruthing != 0 }

// Interner maps strings to dense uint32 ids. Id 0 is reserved for "".
//
// Concurrency contract: the Interner is single-writer. ID may be called
// from one goroutine at a time (the collector shards each own a private
// interner, and the Merger interns first sightings from the single
// merging goroutine). Read-only access — Str, Len, Lookup — is safe from any
// number of goroutines once no writer is active, which is why the
// parallel analysis scans can resolve ids without locks.
type Interner struct {
	ids  map[string]uint32
	strs []string
}

// NewInterner returns an interner with "" pre-assigned id 0.
func NewInterner() *Interner {
	return NewInternerSized(0)
}

// NewInternerSized returns an interner pre-sized for about n strings,
// with "" pre-assigned id 0. The Finalize merge sizes the dataset
// interner from the shard interners' combined length, avoiding the
// rehash/regrow churn of growing a large map one insert at a time.
func NewInternerSized(n int) *Interner {
	if n < 1 {
		n = 1
	}
	in := &Interner{ids: make(map[string]uint32, n), strs: make([]string, 1, n)}
	in.ids[""] = 0
	return in
}

// ID returns (assigning if needed) the id for s.
func (in *Interner) ID(s string) uint32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := uint32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// Lookup returns the id for s without assigning.
func (in *Interner) Lookup(s string) (uint32, bool) {
	id, ok := in.ids[s]
	return id, ok
}

// Str returns the string for an id.
func (in *Interner) Str(id uint32) string {
	if int(id) >= len(in.strs) {
		return ""
	}
	return in.strs[id]
}

// Len returns the number of interned strings including "".
func (in *Interner) Len() int { return len(in.strs) }

// Dataset is the collected, classified request log. Rows live in a
// columnar MemStore (wide by default, compressed or spilled to disk on
// request); consumers scan it chunk-wise via ScanCols/EachRow, or bind
// chunks of Store with ProjChunkAt for parallel scans.
type Dataset struct {
	// Store holds the rows column-wise in fixed-size chunks.
	Store *MemStore
	// FQDNs interns every third-party hostname (and referrer hostnames).
	FQDNs *Interner
	// Countries indexes Row.Country.
	Countries []geodata.Country
	// Publishers indexes Row.Publisher.
	Publishers []*webgraph.Publisher
	// Visits counts first-party requests (page loads).
	Visits int
	// Start anchors Row.Day.
	Start time.Time
}

// Len returns the number of rows.
func (d *Dataset) Len() int {
	if d.Store == nil {
		return 0
	}
	return d.Store.Len()
}

// ScanCols walks the store through the projection path (see
// ScanStoreCols), the one chunk-wise scan of a dataset.
func (d *Dataset) ScanCols(fn func(base int, pc *ProjChunk)) {
	if d.Store == nil {
		return
	}
	ScanStoreCols(d.Store, fn)
}

// EachRow calls fn for every row in order, gathering each back into
// array-of-structs form through ProjChunk.Row. i is the global row
// index. ScanCols is cheaper when only a few columns matter.
func (d *Dataset) EachRow(fn func(i int, r Row)) {
	d.ScanCols(func(base int, pc *ProjChunk) {
		for i := 0; i < pc.Len(); i++ {
			fn(base+i, pc.Row(i))
		}
	})
}

// Rows materializes every row as one array-of-structs slice. Intended
// for tests and small tools: on a spilled Scale >> 1 dataset this undoes
// the columnar layout's memory bound.
func (d *Dataset) Rows() []Row {
	out := make([]Row, 0, d.Len())
	d.EachRow(func(_ int, r Row) { out = append(out, r) })
	return out
}

// Close releases the row store (the spill file, for disk-backed runs).
// The dataset must not be scanned afterwards.
func (d *Dataset) Close() error {
	if d.Store == nil {
		return nil
	}
	return d.Store.Close()
}

// Country returns the user country of a row.
func (d *Dataset) Country(r Row) geodata.Country { return d.Countries[r.Country] }

// FQDN returns the contacted hostname of a row.
func (d *Dataset) FQDN(r Row) string { return d.FQDNs.Str(r.FQDN) }

// Publisher returns the first-party publisher of a row.
func (d *Dataset) Publisher(r Row) *webgraph.Publisher { return d.Publishers[r.Publisher] }

// Time reconstructs the (day-granular) timestamp of a row.
func (d *Dataset) Time(r Row) time.Time { return d.Start.AddDate(0, 0, int(r.Day)) }

// containsKeyword scans a URL for the stage-3 vocabulary in one pass,
// case-insensitively, without allocating.
func containsKeyword(url string) bool {
	return keywordAC.matchParts(url)
}

// FNV-1a constants; fnvAdd folds one string fragment into a running hash
// so URL hashing needs no concatenated "https://"+fqdn+path string.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
