package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/experiments"
)

// Content types accepted by the upload endpoint.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeBinary = "application/x-crossborder-batch"
)

// ContentTypeSnapshot is the /v1/snapshot body: an XCKP1 checkpoint
// payload (see EncodeSnapshot).
const ContentTypeSnapshot = "application/x-crossborder-checkpoint"

// maxUploadBytes bounds one upload request body (64 MiB comfortably
// holds a MaxBatchEvents binary batch).
const maxUploadBytes = 64 << 20

// ErrOverloaded is the admission-control rejection: the server already
// has Limits.MaxInFlight uploads in flight. 429 + Retry-After over
// HTTP; clients with a RetryPolicy back off and re-send.
var ErrOverloaded = errors.New("ingest: too many uploads in flight")

// Limits is the server's overload protection. The zero value keeps the
// open-door behavior: unlimited concurrency, the default body cap, no
// per-request deadline.
type Limits struct {
	// MaxInFlight bounds concurrently admitted uploads. Excess requests
	// are rejected immediately with 429 + Retry-After instead of piling
	// onto the ingest lock without bound (0 = unlimited).
	MaxInFlight int
	// MaxUploadBytes caps one upload request body (0 = 64 MiB).
	MaxUploadBytes int64
	// UploadTimeout bounds one upload's whole read-decode-apply-respond
	// window via per-request connection deadlines, so a client trickling
	// its body byte-by-byte cannot hold a handler forever (0 = none).
	UploadTimeout time.Duration
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLimits sets the server's overload protection.
func WithLimits(l Limits) ServerOption {
	return func(s *Server) { s.lim = l }
}

// StatsResponse is the /v1/stats payload: the aggregates of the latest
// epoch snapshot.
type StatsResponse struct {
	Epoch  int                   `json:"epoch"`
	Rows   int                   `json:"rows"`
	Stats  statsBlock            `json:"dataset"`
	Store  StoreFootprint        `json:"store"`
	Flows  map[string]flowsBlock `json:"flows"` // per geolocation service
	Epochs []EpochStat           `json:"epochs"`
	// Pending counts accepted events not yet in a published snapshot:
	// those pending plus the epoch being committed.
	Pending int `json:"pending_events"`
	// CommitInFlight is 1 while an epoch commit runs and 0 otherwise;
	// CommitWaits counts uploads that waited on the previous epoch's
	// commit. Both are zero on a fan-in view.
	CommitInFlight int   `json:"commit_in_flight"`
	CommitWaits    int64 `json:"commit_waits"`
	// Shards, on a cluster query tier with a health probe registered
	// (QueryServer.OnHealth), carries per-shard breaker and staleness
	// detail; absent on a single collector.
	Shards any `json:"shards,omitempty"`
}

type statsBlock struct {
	Users            int   `json:"users"`
	FirstPartySites  int   `json:"first_party_sites"`
	FirstPartyVisits int   `json:"first_party_visits"`
	ThirdPartyFQDNs  int   `json:"third_party_fqdns"`
	ThirdPartyReqs   int64 `json:"third_party_requests"`
}

type flowsBlock struct {
	Flows     int64   `json:"flows"`
	Unknown   int64   `json:"unknown"`
	EU28InC   float64 `json:"eu28_in_country_pct"`
	EU28InEU  float64 `json:"eu28_in_eu28_pct"`
	EU28InEur float64 `json:"eu28_in_europe_pct"`
}

// Server exposes a Collector over HTTP:
//
//	POST /v1/upload          one Batch (NDJSON or binary by Content-Type)
//	POST /v1/flush           force an epoch commit
//	GET  /v1/experiments     registry ids (JSON array)
//	GET  /v1/experiments/{id} artifact of the latest snapshot
//	                          (?format=text|json; X-Epoch names the epoch)
//	GET  /v1/stats           aggregates of the latest snapshot
//	GET  /healthz            liveness (process is up; always 200)
//	GET  /readyz             readiness (200 once recovery completed and
//	                          not draining; 503 with progress otherwise)
//	GET  /metrics            Prometheus-style counters
//
// Every query endpoint reads one atomic snapshot, so responses are
// consistent epoch views even while uploads commit concurrently.
type Server struct {
	c   *Collector
	mux *http.ServeMux
	lim Limits
	// sem is the upload admission semaphore (nil = unlimited).
	sem chan struct{}
	// mOverload counts 429 admission rejections for /metrics.
	mOverload atomic.Int64
}

// NewServer wraps a collector.
func NewServer(c *Collector, opts ...ServerOption) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.lim.MaxInFlight > 0 {
		s.sem = make(chan struct{}, s.lim.MaxInFlight)
	}
	s.mux.HandleFunc("POST /v1/upload", s.handleUpload)
	s.mux.HandleFunc("POST /v1/flush", s.handleFlush)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.mOverload.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, ErrOverloaded)
			return
		}
	}
	if s.lim.UploadTimeout > 0 {
		// Per-request deadline on the connection itself: covers the slow
		// body read, not just the headers. Errors are ignored — test
		// recorders don't implement deadlines, real servers do.
		rc := http.NewResponseController(w)
		dl := time.Now().Add(s.lim.UploadTimeout)
		rc.SetReadDeadline(dl)
		rc.SetWriteDeadline(dl)
	}
	bodyCap := int64(maxUploadBytes)
	if s.lim.MaxUploadBytes > 0 {
		bodyCap = s.lim.MaxUploadBytes
	}
	body := http.MaxBytesReader(w, r.Body, bodyCap)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	var (
		res UploadResult
		err error
	)
	switch strings.TrimSpace(ct) {
	case ContentTypeBinary:
		var raw []byte
		if raw, err = ReadBody(body, r.ContentLength, bodyCap); err == nil {
			res, err = s.c.IngestBinary(raw)
		}
	case ContentTypeNDJSON, "application/json", "":
		var b Batch
		if b, err = DecodeNDJSON(body); err == nil {
			res, err = s.c.Ingest(b)
		}
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("ingest: unsupported Content-Type %q", ct))
		return
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, err)
	case errors.Is(err, ErrSequenceGap):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrNotReady), errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		// Transient by design: clients with a retry policy (see
		// RetryPolicy) wait out recovery or find the replacement after
		// a drain. ErrClosed is transient too when a supervisor is
		// swapping in a recovered collector behind the same listener.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrJournal):
		writeError(w, http.StatusInternalServerError, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	snap, err := s.c.FlushCheckpoint()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":        snap.Epoch(),
		"rows":         snap.Rows(),
		"checkpointed": s.c.Durable(),
	})
}

// handleSnapshot serves the collector's committed state as one XCKP1
// payload for the fan-in tier. The ETag is the committed epoch, so a
// merger polling an idle shard pays one header round-trip, not a
// re-encode: If-None-Match against the current epoch answers 304 before
// any encoding happens.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.c.Ready() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrNotReady)
		return
	}
	etagOf := func(epoch int) string { return fmt.Sprintf("\"epoch-%d\"", epoch) }
	if inm := r.Header.Get("If-None-Match"); inm != "" && inm == etagOf(s.c.Snapshot().Epoch()) {
		w.Header().Set("ETag", inm)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, epoch, err := s.c.EncodeSnapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", ContentTypeSnapshot)
	w.Header().Set("ETag", etagOf(epoch))
	w.Header().Set("X-Epoch", strconv.Itoa(epoch))
	w.Write(data)
}

// serveExperimentList and serveExperiment are the snapshot-driven query
// handlers shared by the collector Server and the fan-in QueryServer.
func serveExperimentList(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, experiments.IDs())
}

func serveExperiment(w http.ResponseWriter, r *http.Request, snap *Snapshot) {
	id := r.PathValue("id")
	if _, ok := experiments.Get(id); !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("ingest: unknown experiment %q (see /v1/experiments)", id))
		return
	}
	if snap.Rows() == 0 {
		writeError(w, http.StatusConflict,
			errors.New("ingest: no epochs committed yet; upload events first"))
		return
	}
	a, err := snap.Suite().Artifact(r.Context(), id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("X-Epoch", strconv.Itoa(snap.Epoch()))
	w.Header().Set("X-Rows", strconv.Itoa(snap.Rows()))
	switch r.URL.Query().Get("format") {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, a.Render())
	case "json":
		raw, err := a.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("ingest: unknown format %q (text or json)", r.URL.Query().Get("format")))
	}
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	serveExperimentList(w)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	serveExperiment(w, r, s.c.Snapshot())
}

func flowsOf(a *core.Analysis) flowsBlock {
	inC, inEU, inEur, _ := a.RegionConfinement(core.EU28Origin)
	return flowsBlock{
		Flows:     a.Total(),
		Unknown:   a.Unknown(),
		EU28InC:   inC,
		EU28InEU:  inEU,
		EU28InEur: inEur,
	}
}

// statsResponse assembles the /v1/stats payload for one snapshot. The
// store footprint rides on the snapshot (computed at epoch commit);
// callers with live gauges (durability, commit state) overlay them.
func statsResponse(snap *Snapshot, pending int) StatsResponse {
	st := snap.Stats()
	return StatsResponse{
		Epoch: snap.Epoch(),
		Rows:  snap.Rows(),
		Stats: statsBlock{
			Users:            st.Users,
			FirstPartySites:  st.FirstPartySites,
			FirstPartyVisits: st.FirstPartyVisits,
			ThirdPartyFQDNs:  st.ThirdPartyFQDNs,
			ThirdPartyReqs:   st.ThirdPartyReqs,
		},
		Store: snap.Footprint(),
		Flows: map[string]flowsBlock{
			"truth":   flowsOf(snap.TruthAnalysis()),
			"ipmap":   flowsOf(snap.IPMapAnalysis()),
			"maxmind": flowsOf(snap.MaxMindAnalysis()),
		},
		Epochs:  snap.History(),
		Pending: pending,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The history and footprint ride on the snapshot (immutable shares)
	// and every live gauge is atomic, so /v1/stats — like every query
	// endpoint — never waits behind an in-flight epoch commit.
	resp := statsResponse(s.c.Snapshot(), s.c.PendingEvents())
	if s.c.inflightN.Load() > 0 {
		resp.CommitInFlight = 1
	}
	resp.CommitWaits = s.c.mCommitWaits.Load()
	resp.Store.WALUncoveredBytes = s.c.walSinceCkpt.Load()
	resp.Store.LastCheckpointBytes = s.c.lastCkptBytes.Load()
	if msg := s.c.lastCkptErr.Load(); msg != nil {
		resp.Store.LastCheckpointError = *msg
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It stays 200 through recovery and drain — orchestrators must not kill
// a pod for being busy replaying its WAL. Readiness lives at /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.c.started).Round(time.Second).String(),
	})
}

// handleReadyz is readiness: 200 only when the collector accepts
// uploads. During recovery it returns 503 with replay progress
// (segments replayed / total) so operators can watch a restart
// converge; during a graceful drain it returns 503 "draining".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.c.Draining():
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case !s.c.Ready():
		p := s.c.Recovery()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":   "recovering",
			"recovery": p,
		})
	default:
		snap := s.c.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready",
			"epoch":  snap.Epoch(),
			"rows":   snap.Rows(),
		})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.c.Snapshot()
	m := NewExposition(w)
	m.Counter("collectd_batches_total", "Upload batches received (including rejected).", s.c.mBatches.Load())
	m.Counter("collectd_events_total", "Events newly accepted.", s.c.mEvents.Load())
	m.Counter("collectd_duplicate_events_total", "Events skipped as already-seen retransmits.", s.c.mDupEvents.Load())
	m.Counter("collectd_sequence_gaps_total", "Batches rejected for a sequence gap.", s.c.mSeqGaps.Load())
	m.Counter("collectd_rejected_batches_total", "Batches rejected by validation.", s.c.mRejected.Load())
	m.Counter("collectd_overload_rejected_total", "Uploads rejected 429 by admission control.", s.mOverload.Load())
	m.Counter("collectd_commit_waits_total", "Uploads that waited on the previous epoch's commit.", s.c.mCommitWaits.Load())
	m.Gauge("collectd_inflight_uploads", "Uploads currently admitted.", float64(len(s.sem)))
	m.Gauge("collectd_pending_events", "Accepted events not yet in a published snapshot.", float64(s.c.PendingEvents()))
	m.Gauge("collectd_commit_in_flight", "1 while an epoch commit runs.", float64(min(s.c.inflightN.Load(), 1)))
	m.Gauge("collectd_epoch", "Latest committed epoch.", float64(snap.Epoch()))
	m.Gauge("collectd_rows", "Dataset rows at the latest epoch.", float64(snap.Rows()))
	m.Gauge("collectd_users", "Distinct users observed in rows.", float64(snap.Stats().Users))
	m.Gauge("collectd_uptime_seconds", "Seconds since the collector started.", time.Since(s.c.started).Seconds())
	m.ScanCounters("collectd")
}

// Exposition writes Prometheus-style plain-text metrics: each metric
// as a HELP line, a TYPE line and one sample. It is the one writer
// behind the /metrics surfaces of collectd and mergerd.
type Exposition struct{ w io.Writer }

// NewExposition sets the text exposition content type on w and
// returns a writer for its metrics.
func NewExposition(w http.ResponseWriter) Exposition {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	return Exposition{w}
}

// Counter writes one counter sample.
func (e Exposition) Counter(name, help string, v int64) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// Gauge writes one gauge sample.
func (e Exposition) Gauge(name, help string, v float64) {
	fmt.Fprintf(e.w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// ScanCounters writes the process-wide projection scan counters
// (classify.ReadScanStats) under the given metric name prefix.
func (e Exposition) ScanCounters(prefix string) {
	ss := classify.ReadScanStats()
	e.Counter(prefix+"_scan_chunks_total", "Chunks offered to projection scan kernels.", ss.ChunksScanned)
	e.Counter(prefix+"_scan_chunks_skipped_total", "Chunks pruned without loading a column (zone map / class bitmap).", ss.ChunksSkipped)
}

// PendingEvents returns the number of accepted events not yet in a
// published snapshot: those pending plus the epoch in flight.
// Lock-free: the query path must not stall behind an epoch commit.
func (c *Collector) PendingEvents() int {
	return int(c.pendingN.Load() + c.inflightN.Load())
}

// ReadBody reads r to EOF into one buffer sized from declared, a
// request's or response's Content-Length (-1 when unknown), capped at
// limit so that a forged header cannot reserve memory. A body shorter
// than declared returns what arrived; a longer one grows the buffer and
// still reads in full.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	size := int64(512)
	if declared >= 0 {
		// One spare byte lets the read that sees EOF land without a
		// reallocation when the body is exactly as declared.
		size = min(declared, limit) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
