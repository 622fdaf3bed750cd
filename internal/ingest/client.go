package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"crossborder/internal/browser"
	"crossborder/internal/scenario"
	"crossborder/internal/webgraph"
)

// Recorder is a browser.Sink that captures the simulation's event
// stream in upload wire form, per user and in emission order — the
// export side of the replay loop: what a Recorder captures, a Client
// can upload, and the collector rebuilds the batch dataset from it.
// Like every Sink, one Recorder is driven from a single goroutine; the
// parallel simulation gives each worker its own.
type Recorder struct {
	events map[int32][]Event
}

// NewRecorder returns an empty capture sink.
func NewRecorder() *Recorder { return &Recorder{events: make(map[int32][]Event)} }

// OnVisit implements browser.Sink.
func (r *Recorder) OnVisit(u *browser.User, p *webgraph.Publisher, at time.Time) {
	uid := int32(u.ID)
	r.events[uid] = append(r.events[uid], Event{
		Kind: KindVisit, At: at.Unix(), Publisher: p.Domain,
	})
}

// OnRequest implements browser.Sink.
func (r *Recorder) OnRequest(ev browser.Event) {
	uid := int32(ev.User.ID)
	r.events[uid] = append(r.events[uid], Event{
		Kind:      KindRequest,
		At:        ev.At.Unix(),
		Publisher: ev.Publisher.Domain,
		FQDN:      ev.Call.FQDN,
		Path:      ev.Call.Path,
		RefFQDN:   ev.Call.RefFQDN,
		IP:        uint32(ev.IP),
		HTTPS:     ev.HTTPS,
		HasArgs:   ev.Call.HasArgs,
	})
}

// Events returns the captured stream of one user.
func (r *Recorder) Events(user int32) []Event { return r.events[user] }

// RecordSimulation replays the world's browsing study — the same
// per-user RNG streams the batch pipeline simulates — and returns each
// user's upload event stream. The world comes from scenario.BuildWorld;
// visitsPerUser and workers mirror the batch Params (0 = defaults).
// Because users browse on private streams, the capture is identical at
// any worker count.
func RecordSimulation(world *scenario.Scenario, visitsPerUser, workers int) map[int32][]Event {
	visits := visitsPerUser
	if visits == 0 {
		visits = 219
	}
	sim := browser.NewSimulator(world.Graph, world.DNS, browser.Config{
		Start: world.Start, End: world.End, VisitsPerUser: visits,
		ProfileFor: world.ProfileFor(),
	})
	var recs []*Recorder
	sim.RunWorkers(world.Params.Seed, world.Users, workers, func(int) []browser.Sink {
		r := NewRecorder()
		recs = append(recs, r)
		return []browser.Sink{r}
	})
	merged := make(map[int32][]Event)
	for _, r := range recs {
		for uid, evs := range r.events {
			// Every user's full stream lands in exactly one worker's sink.
			merged[uid] = evs
		}
	}
	return merged
}

// RetryPolicy makes a Client ride out transient failures: transport
// errors (connection reset, refused, timeout), 5xx responses — notably
// the 503s a recovering or draining collector returns — 429 admission
// rejections, and 200s whose body was mangled in flight. Retries back
// off exponentially with full jitter; a Retry-After header on the
// failed response raises the next backoff's floor (capped by MaxDelay),
// so clients honor the server's own estimate of when to come back.
// Uploads are safe to retry blindly: the collector's per-user sequence
// numbers dedup re-sent events, so a request whose response was lost
// applies exactly once.
type RetryPolicy struct {
	// MaxAttempts is the total try budget, first attempt included
	// (0 = 5).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; attempt k waits
	// up to BaseDelay<<k (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff (0 = 2s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the sleep before retry k (0-based): full jitter over
// an exponentially growing window.
func (p RetryPolicy) backoff(k int) time.Duration {
	d := p.BaseDelay << k
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// Client uploads batches to a collectd instance and queries its API.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8477".
	Base string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
	// Binary selects the compact binary framing instead of NDJSON.
	Binary bool
	// Retry, when non-nil, retries transient request failures (see
	// RetryPolicy). Nil = one attempt, fail fast.
	Retry *RetryPolicy
}

func (cl *Client) http() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// retryable reports whether a response status is worth another attempt:
// the server-side errors a restart, a drain, or admission-control
// backpressure heals. Other 4xx are permanent — the request itself is
// wrong (or, for 409, needs different data).
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// retryAfter parses a Retry-After header as delay-seconds (the form
// this system's servers send). 0 means absent or unparseable.
func retryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do issues one request with the retry policy. The body is a byte
// slice, not a Reader, precisely so every attempt can re-send it from
// the start.
func (cl *Client) do(method, path, contentType string, body []byte, out any) error {
	policy := RetryPolicy{MaxAttempts: 1}
	if cl.Retry != nil {
		policy = cl.Retry.withDefaults()
	}
	var (
		lastErr error
		// floor is the server's Retry-After from the previous attempt:
		// the backoff sleeps at least that long (capped by MaxDelay — a
		// client never lets a server park it indefinitely).
		floor time.Duration
	)
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := policy.backoff(attempt - 1)
			if floor > policy.MaxDelay {
				floor = policy.MaxDelay
			}
			if d < floor {
				d = floor
			}
			time.Sleep(d)
		}
		floor = 0
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, cl.Base+path, rd)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := cl.http().Do(req)
		if err != nil {
			lastErr = err // transport failure: retryable
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("ingest: %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
			if retryable(resp.StatusCode) {
				floor = retryAfter(resp.Header)
				continue
			}
			return lastErr
		}
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				// A 200 whose body does not parse is a mangled response
				// (truncated or corrupted in flight), not a server
				// verdict: retry it like a transport failure.
				lastErr = fmt.Errorf("ingest: %s: undecodable response: %w", path, err)
				continue
			}
			return nil
		}
		return nil
	}
	return fmt.Errorf("ingest: giving up after %d attempts: %w", policy.MaxAttempts, lastErr)
}

// Upload sends one batch and returns the server's accounting. With a
// retry policy set, a lost response re-sends the batch and the server's
// dedup reports it as duplicates — the events still apply exactly once.
func (cl *Client) Upload(b Batch) (UploadResult, error) {
	var (
		body []byte
		ct   string
	)
	if cl.Binary {
		ct = ContentTypeBinary
		body = EncodeBinary(b)
	} else {
		ct = ContentTypeNDJSON
		var buf bytes.Buffer
		if err := EncodeNDJSON(&buf, b); err != nil {
			return UploadResult{}, err
		}
		body = buf.Bytes()
	}
	var res UploadResult
	err := cl.do(http.MethodPost, "/v1/upload", ct, body, &res)
	return res, err
}

// Flush forces an epoch commit (and, on a durable collector, a
// checkpoint) and returns the committed epoch/rows.
func (cl *Client) Flush() (epoch, rows int, err error) {
	var out struct {
		Epoch int `json:"epoch"`
		Rows  int `json:"rows"`
	}
	err = cl.do(http.MethodPost, "/v1/flush", "", nil, &out)
	return out.Epoch, out.Rows, err
}

// Stats fetches /v1/stats.
func (cl *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	err := cl.do(http.MethodGet, "/v1/stats", "", nil, &out)
	return out, err
}

// Ready reports whether the server's /readyz says it accepts uploads.
func (cl *Client) Ready() bool {
	resp, err := cl.http().Get(cl.Base + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Artifact fetches one experiment's rendered text from the latest
// snapshot, returning the text and the epoch it was computed at.
func (cl *Client) Artifact(id string) (text string, epoch int, err error) {
	resp, err := cl.http().Get(cl.Base + "/v1/experiments/" + id)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("ingest: experiment %s: %s: %s", id, resp.Status, bytes.TrimSpace(raw))
	}
	fmt.Sscanf(resp.Header.Get("X-Epoch"), "%d", &epoch)
	return string(raw), epoch, nil
}

// ReplayStats summarizes one Replay run.
type ReplayStats struct {
	Users    int
	Events   int
	Batches  int
	Duration time.Duration
}

// EventsPerSec returns the upload throughput.
func (rs ReplayStats) EventsPerSec() float64 {
	if rs.Duration <= 0 {
		return 0
	}
	return float64(rs.Events) / rs.Duration.Seconds()
}

// Replay uploads recorded per-user event streams in ascending user id,
// split into batches of batchSize events with per-user sequence
// numbers. uploaders > 1 distributes whole users over concurrent
// connections (each user's stream stays in order on one connection);
// with one uploader the server receives the exact global stream order,
// which is what makes a replayed dataset byte-identical to the batch
// study. The final partial epoch is left pending; call Flush to commit
// it.
func (cl *Client) Replay(events map[int32][]Event, batchSize, uploaders int) (ReplayStats, error) {
	if uploaders <= 0 {
		uploaders = 1
	}
	userIDs := slices.Sorted(maps.Keys(events))
	stats := ReplayStats{Users: len(userIDs)}
	start := time.Now()
	upload := func(b Batch) error {
		_, err := cl.Upload(b)
		return err
	}

	if uploaders == 1 {
		n, b, err := UploadUsers(upload, events, userIDs, batchSize)
		stats.Events, stats.Batches = n, b
		stats.Duration = time.Since(start)
		return stats, err
	}

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	work := make(chan int32)
	for i := 0; i < uploaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for uid := range work {
				n, b, err := UploadUsers(upload, events, []int32{uid}, batchSize)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				stats.Events += n
				stats.Batches += b
				mu.Unlock()
			}
		}()
	}
	for _, uid := range userIDs {
		work <- uid
	}
	close(work)
	wg.Wait()
	stats.Duration = time.Since(start)
	return stats, firstErr
}

// UploadUsers is the one upload loop of every replay: it sends the
// event streams of users, in order, through upload, each split into
// batches of batchSize events (<= 0 selects 512) whose Seq is the
// batch's offset in the user's stream. It stops at the first failed
// upload, returning the events of the users fully uploaded and every
// batch sent before the failure.
func UploadUsers(upload func(Batch) error, events map[int32][]Event, users []int32, batchSize int) (nEvents, batches int, err error) {
	if batchSize <= 0 {
		batchSize = 512
	}
	for _, uid := range users {
		evs := events[uid]
		for off := 0; off < len(evs); off += batchSize {
			hi := min(off+batchSize, len(evs))
			if err := upload(Batch{User: uid, Seq: uint64(off), Events: evs[off:hi]}); err != nil {
				return nEvents, batches, fmt.Errorf("user %d seq %d: %w", uid, off, err)
			}
			batches++
		}
		nEvents += len(evs)
	}
	return nEvents, batches, nil
}
