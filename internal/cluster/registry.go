package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// State is a member's liveness as judged from its heartbeat recency.
type State uint8

const (
	// StateAlive: heartbeats arriving on schedule.
	StateAlive State = iota
	// StateSuspect: a heartbeat is overdue, but not by enough to write
	// the member off — clients still try it first, the fan-in tier
	// still pulls from it.
	StateSuspect
	// StateDead: no heartbeat for the dead window. Clients re-resolve,
	// the fan-in tier serves the member's last merged state until it
	// returns.
	StateDead
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "alive":
		*s = StateAlive
	case "suspect":
		*s = StateSuspect
	case "dead":
		*s = StateDead
	default:
		return fmt.Errorf("cluster: unknown state %q", name)
	}
	return nil
}

// Member is one shard's registry entry.
type Member struct {
	Node     string    `json:"node"`
	Addr     string    `json:"addr"`
	State    State     `json:"state"`
	Epoch    int       `json:"epoch"`
	Rows     int       `json:"rows"`
	LastSeen time.Time `json:"last_seen"`
}

// Registry is the membership table: heartbeats come in,
// liveness-annotated members come out. States derive from
// heartbeat recency at read time — alive within SuspectAfter, suspect
// within DeadAfter, dead beyond — so the registry needs no background
// reaper. Members are never removed: a dead shard that resumes
// heartbeating is alive again, and its entry meanwhile tells clients
// the last known address.
type Registry struct {
	// SuspectAfter and DeadAfter are the recency windows (defaults 3s
	// and 10s).
	suspectAfter time.Duration
	deadAfter    time.Duration
	now          func() time.Time

	mu      sync.Mutex
	members map[string]*memberState
	// Liveness transition counters, diffed at read time (states are
	// derived, not stored, so a transition is observed the first time a
	// read sees the new state). Guarded by mu.
	transAlive, transSuspect, transDead uint64
}

type memberState struct {
	addr       string
	epoch      uint64
	rows       uint64
	lastSeen   time.Time
	lastState  State
	stateKnown bool
}

// NewRegistry returns an empty registry with the given liveness
// windows (<= 0 picks the defaults: suspect after 3s, dead after 10s).
func NewRegistry(suspectAfter, deadAfter time.Duration) *Registry {
	if suspectAfter <= 0 {
		suspectAfter = 3 * time.Second
	}
	if deadAfter <= suspectAfter {
		deadAfter = 10 * time.Second
		if deadAfter <= suspectAfter {
			deadAfter = suspectAfter * 3
		}
	}
	return &Registry{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		now:          time.Now,
		members:      make(map[string]*memberState),
	}
}

// SetClock injects a clock for deterministic tests.
func (r *Registry) SetClock(now func() time.Time) { r.now = now }

// Observe records a direct heartbeat at the current time.
func (r *Registry) Observe(hb Heartbeat) {
	if hb.Node == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[hb.Node]
	if m == nil {
		m = &memberState{}
		r.members[hb.Node] = m
	}
	if hb.Addr != "" {
		m.addr = hb.Addr
	}
	m.epoch, m.rows = hb.Epoch, hb.Rows
	m.lastSeen = r.now()
}

func (r *Registry) stateOf(m *memberState, now time.Time) State {
	switch age := now.Sub(m.lastSeen); {
	case age < r.suspectAfter:
		return StateAlive
	case age < r.deadAfter:
		return StateSuspect
	default:
		return StateDead
	}
}

// Members returns the full view sorted by node name, states computed
// at call time.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Member, 0, len(r.members))
	for node, m := range r.members {
		st := r.stateOf(m, now)
		if !m.stateKnown {
			m.stateKnown = true
			m.lastState = st
		} else if st != m.lastState {
			switch st {
			case StateAlive:
				r.transAlive++
			case StateSuspect:
				r.transSuspect++
			case StateDead:
				r.transDead++
			}
			m.lastState = st
		}
		out = append(out, Member{
			Node:     node,
			Addr:     m.addr,
			State:    st,
			Epoch:    int(m.epoch),
			Rows:     int(m.rows),
			LastSeen: m.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Transitions returns the cumulative liveness transition counts: how
// many times a member became alive (recovered), suspect, or dead since
// the registry started. Transitions are observed at read time — states
// derive from heartbeat recency, so a flap between two reads that lands
// back on the previous state is not counted.
func (r *Registry) Transitions() (toAlive, toSuspect, toDead uint64) {
	r.Members() // fold current states into the counters first
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transAlive, r.transSuspect, r.transDead
}

// Lookup returns one member's entry.
func (r *Registry) Lookup(node string) (Member, bool) {
	for _, m := range r.Members() {
		if m.Node == node {
			return m, true
		}
	}
	return Member{}, false
}

// Records renders the view as wire records (the members?format=wire
// view FetchMembers reads).
func (r *Registry) Records() []MemberRecord {
	members := r.Members()
	recs := make([]MemberRecord, len(members))
	for i, m := range members {
		recs[i] = MemberRecord{
			Node:       m.Node,
			Addr:       m.Addr,
			State:      m.State,
			Epoch:      uint64(m.Epoch),
			Rows:       uint64(m.Rows),
			LastSeenMs: uint64(m.LastSeen.UnixMilli()),
		}
	}
	return recs
}

// Content types of the cluster wire formats.
const (
	ContentTypeHeartbeat = "application/x-crossborder-heartbeat"
	ContentTypeMembers   = "application/x-crossborder-members"
)

// maxFrameBytes bounds one heartbeat request body.
const maxFrameBytes = 1 << 20

// Handler returns the registry's HTTP surface:
//
//	POST /cluster/v1/heartbeat  one wire heartbeat (XHB1)
//	GET  /cluster/v1/members    the view (JSON; ?format=wire for XMB1)
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/heartbeat", r.handleHeartbeat)
	mux.HandleFunc("GET /cluster/v1/members", r.handleMembers)
	return mux
}

func (r *Registry) handleHeartbeat(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxFrameBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hb, err := DecodeHeartbeat(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Observe(hb)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"members":%d}`+"\n", len(r.Members()))
}

func (r *Registry) handleMembers(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "wire" {
		w.Header().Set("Content-Type", ContentTypeMembers)
		w.Write(EncodeMembers(r.Records()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.Members())
}
