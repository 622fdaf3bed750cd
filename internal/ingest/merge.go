package ingest

import (
	"fmt"
	"runtime"

	"crossborder/internal/classify"
	"crossborder/internal/geodata"
	"crossborder/internal/scenario"
	"crossborder/internal/webgraph"
)

// This file is the fan-in merge: MergeExports folds N per-shard
// /v1/snapshot exports into one global Snapshot that serves the full
// query API, byte-identical to what a single collector over the union
// of the shards' events would serve.
//
// Rows copy over through the same classify.Merger the epoch commits
// and the batch build use: each export is one merge source whose
// string tables the Merger remaps into the merged interner, country
// and publisher tables, first-seen in merge order — so the merged
// dataset is a permutation of the single-collector dataset, and every
// artifact is invariant to row order, interner numbering, and table
// order (the same invariance the live replay's epoch-size freedom
// already exercises).
//
// Classification needs one correction: stages 2 and 3 are a fixpoint
// over FQDN-level tracking membership across ALL users, so a shard
// that owns only its partition under-classifies — a clean row whose
// referrer only tracks on another shard's rows converts globally but
// not shard-locally. The merge therefore demotes every semi label back
// to clean and re-runs the batch merge's fixpoint over the union. The
// closure is monotone (shard-LTF is a subset of global-LTF), so every
// shard-side conversion re-converts, plus exactly the cross-shard ones
// the shards could not see.
//
// No aggregate is merged: the merged Snapshot derives Table 1 and the
// flow maps from the merged rows, as every Snapshot does, so flow
// counts an export may still carry are never read.

// MergeExports merges per-shard snapshot exports into one global
// Snapshot over the shared world. Exports must come from collectors
// built for the same seed/scale world, with pairwise-disjoint user
// sets (the ring partition guarantees this; overlap means misrouted
// uploads and is refused). The order of exports does not affect any
// served artifact; callers should still fix it (e.g. by shard name)
// so merged datasets are reproducible byte for byte.
func MergeExports(world *scenario.Scenario, exports []*ShardExport, workers int) (*Snapshot, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	pubByDomain := make(map[string]*webgraph.Publisher, len(world.Graph.Publishers))
	for _, p := range world.Graph.Publishers {
		pubByDomain[p.Domain] = p
	}

	internHint := 0
	for _, ex := range exports {
		internHint = max(internHint, len(ex.meta.FQDNs))
	}
	st := classify.NewMemStore()
	mg := classify.NewMerger(world.Start, st, internHint)
	ds := mg.Dataset()
	// userShard maps each user seen in the rows to its shard, for the
	// overlap check.
	userShard := make(map[int32]int)
	epoch := 0

	var buf classify.Chunk
	for si, ex := range exports {
		m := ex.meta
		if m.Seed != world.Params.Seed || m.Scale != world.Params.Scale {
			return nil, fmt.Errorf("ingest: shard %d export is for seed %d scale %g, merger runs seed %d scale %g",
				si, m.Seed, m.Scale, world.Params.Seed, world.Params.Scale)
		}
		if m.StartUnix != world.Start.Unix() {
			return nil, fmt.Errorf("ingest: shard %d export start time %d does not match the world's %d",
				si, m.StartUnix, world.Start.Unix())
		}
		t := classify.Tables{
			FQDNs:      m.FQDNs,
			Countries:  make([]geodata.Country, len(m.Countries)),
			Publishers: make([]*webgraph.Publisher, len(m.Publishers)),
		}
		for i, s := range m.Countries {
			t.Countries[i] = geodata.Country(s)
		}
		for i, dom := range m.Publishers {
			p, known := pubByDomain[dom]
			if !known {
				return nil, fmt.Errorf("ingest: shard %d publisher %q unknown to the world", si, dom)
			}
			t.Publishers[i] = p
		}
		src := mg.Source(t)

		// A user's rows come in runs; the overlap check runs once per run.
		user, inRun := int32(0), false
		for ci := range ex.blocks {
			rows := len(ex.classes[ci])
			if err := classify.DecodeBlockInto(ex.blocks[ci], rows, &buf); err != nil {
				return nil, fmt.Errorf("ingest: shard %d chunk %d: %w", si, ci, err)
			}
			buf.Class = ex.classes[ci]
			for i := 0; i < rows; i++ {
				r := buf.Row(i)
				if r.Class.IsSemi() {
					// Demote: the shard's semi conversions re-derive below
					// under the global fixpoint (ABP labels are stage-1
					// per-row facts and stand).
					r.Class = classify.ClassClean
				}
				if !inRun || r.User != user {
					user, inRun = r.User, true
					if s, seen := userShard[user]; !seen {
						userShard[user] = si
					} else if s != si {
						return nil, fmt.Errorf("ingest: user %d appears on more than one shard (shard %d overlaps shard %d)", user, si, s)
					}
				}
				if err := mg.Append(src, r); err != nil {
					return nil, fmt.Errorf("ingest: shard %d chunk %d row %d: %w", si, ci, i, err)
				}
			}
		}
		ds.Visits += m.Visits
		epoch += len(m.Epochs)
	}

	// Global stage-2/3 fixpoint over the union, exactly as the batch
	// merge runs it: the ABP rows re-seed the LTF, the keyword rows
	// re-convert, and the propagation rounds close the referrer chains
	// across shard boundaries.
	classify.RunSemiStages(ds, workers)

	return &Snapshot{
		epoch:     epoch,
		ds:        ds,
		footprint: footprintOf(st),
		world:     world,
	}, nil
}
