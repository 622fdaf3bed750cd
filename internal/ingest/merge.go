package ingest

import (
	"fmt"
	"runtime"

	"crossborder/internal/classify"
	"crossborder/internal/core"
	"crossborder/internal/geodata"
	"crossborder/internal/scenario"
	"crossborder/internal/webgraph"
)

// This file is the fan-in merge: MergeExports folds N per-shard
// /v1/snapshot exports into one global Snapshot that serves the full
// query API, byte-identical to what a single collector over the union
// of the shards' events would serve.
//
// Rows copy over with their ids remapped through global tables (the
// merged interner, country and publisher indexes), exactly as the
// epoch Merger remaps shard-local ids — so the merged dataset is a
// permutation of the single-collector dataset, and every artifact is
// invariant to row order, interner numbering, and table order (the
// same invariance the live replay's epoch-size freedom already
// exercises).
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
// Aggregates follow the same shape: the shard flow maps merge
// (counter addition commutes), then the rows that became tracking only
// under the global fixpoint contribute a delta through the same
// core.Join the collector's applyDeltas runs per epoch. The result
// equals a full core.Analyze rescan (TestMergeExportsMatchesRescan).

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

	totalRows, internHint := 0, 0
	for _, ex := range exports {
		totalRows += ex.meta.Rows
		if n := len(ex.meta.FQDNs); n > internHint {
			internHint = n
		}
	}
	st := classify.NewMemStore()
	ds := &classify.Dataset{
		Store: st,
		FQDNs: classify.NewInternerSized(internHint),
		Start: world.Start,
	}
	countryIdx := make(map[geodata.Country]uint8)
	pubIdx := make(map[string]int32)
	// userShard maps each user seen in the rows to its shard, for the
	// overlap check and the distinct-user count.
	userShard := make(map[int32]int)
	fqdnSet := make(map[uint32]struct{})
	truth, ipmap, maxmind := core.NewAnalysis(), core.NewAnalysis(), core.NewAnalysis()
	wasTracking := make([]bool, 0, totalRows)
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
		// Shard-local id -> global id remap tables, assigned in
		// first-seen order like the epoch Merger's.
		fmap := make([]uint32, len(m.FQDNs))
		for i, s := range m.FQDNs {
			fmap[i] = ds.FQDNs.ID(s)
		}
		cmap := make([]uint8, len(m.Countries))
		for i, s := range m.Countries {
			cc := geodata.Country(s)
			id, ok := countryIdx[cc]
			if !ok {
				if len(ds.Countries) >= 256 {
					return nil, fmt.Errorf("ingest: merged country table exceeds 256 entries")
				}
				id = uint8(len(ds.Countries))
				countryIdx[cc] = id
				ds.Countries = append(ds.Countries, cc)
			}
			cmap[i] = id
		}
		pmap := make([]int32, len(m.Publishers))
		for i, dom := range m.Publishers {
			id, ok := pubIdx[dom]
			if !ok {
				p, known := pubByDomain[dom]
				if !known {
					return nil, fmt.Errorf("ingest: shard %d publisher %q unknown to the world", si, dom)
				}
				id = int32(len(ds.Publishers))
				pubIdx[dom] = id
				ds.Publishers = append(ds.Publishers, p)
			}
			pmap[i] = id
		}

		for ci := range ex.blocks {
			rows := len(ex.classes[ci])
			if err := classify.DecodeBlockInto(ex.blocks[ci], rows, &buf); err != nil {
				return nil, fmt.Errorf("ingest: shard %d chunk %d: %w", si, ci, err)
			}
			buf.Class = ex.classes[ci]
			for i := 0; i < rows; i++ {
				r := buf.Row(i)
				if int(r.FQDN) >= len(fmap) || int(r.RefFQDN) >= len(fmap) ||
					int(r.Country) >= len(cmap) || int(r.Publisher) < 0 || int(r.Publisher) >= len(pmap) {
					return nil, fmt.Errorf("ingest: shard %d chunk %d row %d has out-of-table ids", si, ci, i)
				}
				r.FQDN, r.RefFQDN = fmap[r.FQDN], fmap[r.RefFQDN]
				r.Country, r.Publisher = cmap[r.Country], pmap[r.Publisher]
				wasTracking = append(wasTracking, r.Class.IsTracking())
				if r.Class.IsSemi() {
					// Demote: the shard's semi conversions re-derive below
					// under the global fixpoint (ABP labels are stage-1
					// per-row facts and stand).
					r.Class = classify.ClassClean
				}
				if s, seen := userShard[r.User]; !seen {
					userShard[r.User] = si
				} else if s != si {
					return nil, fmt.Errorf("ingest: user %d appears on more than one shard (shard %d overlaps shard %d)", r.User, si, s)
				}
				fqdnSet[r.FQDN] = struct{}{}
				st.Append(r)
			}
		}
		ds.Visits += m.Visits
		truth.Merge(core.RestoreAnalysis(m.Truth.Flows, m.Truth.Unknown))
		ipmap.Merge(core.RestoreAnalysis(m.IPMap.Flows, m.IPMap.Unknown))
		maxmind.Merge(core.RestoreAnalysis(m.MaxMind.Flows, m.MaxMind.Unknown))
		epoch += len(m.Epochs)
	}

	// Global stage-2/3 fixpoint over the union, exactly as the batch
	// merge runs it: the ABP rows re-seed the LTF, the keyword rows
	// re-convert, and the propagation rounds close the referrer chains
	// across shard boundaries.
	classify.RunSemiStages(ds, workers)

	// Aggregate delta: rows tracking now but not at export time (the
	// cross-shard conversions) join the flow maps, exactly like the
	// collector's per-epoch applyDeltas. Demoted rows that re-converted
	// are already counted in the merged shard analyses.
	var converted []int
	for ci := 0; ci < st.NumChunks(); ci++ {
		base := ci * st.ChunkRows()
		for i, cls := range st.Classes(ci) {
			if cls.IsTracking() && !wasTracking[base+i] {
				converted = append(converted, base+i)
			}
		}
	}
	d := core.Join(ds, world.FlowServices(), st.Len(), converted)
	truth.Merge(d[0])
	ipmap.Merge(d[1])
	maxmind.Merge(d[2])

	return &Snapshot{
		epoch:     epoch,
		ds:        ds,
		footprint: footprintOf(st),
		stats: classify.DatasetStats{
			Users:            len(userShard),
			FirstPartySites:  len(ds.Publishers),
			FirstPartyVisits: ds.Visits,
			ThirdPartyFQDNs:  len(fqdnSet),
			ThirdPartyReqs:   int64(st.Len()),
		},
		truth:   truth,
		ipmap:   ipmap,
		maxmind: maxmind,
		world:   world,
	}, nil
}
