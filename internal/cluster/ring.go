// Package cluster scales the live collection backend horizontally: N
// collectd instances each own a partition of the user population
// (consistent hashing on user id), announce themselves over a
// lightweight heartbeat/gossip membership layer, and a fan-in tier
// (cmd/mergerd) pulls per-shard epoch snapshots and serves the full
// /v1/* query API from the merged global view.
//
// The pieces compose but stand alone:
//
//   - Ring: a consistent-hash ring with replicated virtual nodes that
//     maps user ids to shard names, stable under membership churn.
//   - Registry: the membership table — heartbeats in, liveness states
//     (alive/suspect/dead) out, mergeable across registries (gossip).
//   - Heartbeater: the collector-side loop that POSTs heartbeats
//     carrying the shard's epoch high-water mark.
//   - Client: ring-aware upload routing with registry-driven retarget:
//     hash locally, send to the owner, and on a dead shard re-resolve
//     the owner's current address (a restarted collector may come back
//     elsewhere; the ring assignment itself never moves, which is what
//     keeps per-user sequence numbers — and exactly-once — intact).
//   - Fanin: the merge tier — pull /v1/snapshot exports from every
//     shard, merge via ingest.MergeExports, publish one global
//     copy-on-write snapshot.
package cluster

import (
	"fmt"
	"sort"
)

// defaultVNodes is the virtual-node replication factor: enough points
// that an 8-node ring balances user ownership within a few percent.
const defaultVNodes = 64

// Ring is a consistent-hash ring over a fixed set of named shards.
// Each shard contributes vnodes points; a user id hashes to the first
// point clockwise. Assignments are stable: adding or removing one
// shard only moves the users that shard owned (or inherits), never
// shuffles ownership among the survivors — the property that lets a
// cluster grow without re-partitioning every collector's sequence
// state.
//
// A Ring is immutable after construction; derive changed topologies
// with Add/Remove.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, unique
	vnodes int
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given shard names. vnodes <= 0 picks
// the default replication factor. Duplicate names collapse; at least
// one node is required.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	uniq := make(map[string]struct{}, len(nodes))
	var names []string
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if _, dup := uniq[n]; !dup {
			uniq[n] = struct{}{}
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(names)
	r := &Ring{nodes: names, vnodes: vnodes}
	for ni, name := range names {
		h := fnv64a(name)
		for v := 0; v < vnodes; v++ {
			// Each virtual point chains from the node-name hash through
			// a splitmix round, so points of one node scatter uniformly
			// instead of clustering.
			r.points = append(r.points, ringPoint{hash: splitmix64(h + uint64(v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by node order so the
		// ring is deterministic regardless of construction order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the shard names, sorted. Callers must not mutate the
// slice.
func (r *Ring) Nodes() []string { return r.nodes }

// VNodes returns the virtual-node replication factor.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the shard that owns the given user id.
func (r *Ring) Owner(user int32) string {
	return r.nodes[r.ownerIndex(userHash(user))]
}

// ownerIndex finds the first ring point at or clockwise of h.
func (r *Ring) ownerIndex(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].node
}

// Partition groups user ids by owning shard (each bucket preserves the
// input order).
func (r *Ring) Partition(users []int32) map[string][]int32 {
	out := make(map[string][]int32, len(r.nodes))
	for _, u := range users {
		n := r.Owner(u)
		out[n] = append(out[n], u)
	}
	return out
}

// Add returns a new ring with one more shard.
func (r *Ring) Add(node string) (*Ring, error) {
	return NewRing(append(append([]string(nil), r.nodes...), node), r.vnodes)
}

// Remove returns a new ring without the named shard.
func (r *Ring) Remove(node string) (*Ring, error) {
	var names []string
	for _, n := range r.nodes {
		if n != node {
			names = append(names, n)
		}
	}
	return NewRing(names, r.vnodes)
}

// userHash spreads the dense low user-id range over the full 64-bit
// ring keyspace.
func userHash(user int32) uint64 { return splitmix64(uint64(uint32(user)) + 0x9e3779b97f4a7c15) }

// fnv64a is the FNV-1a hash of s.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
