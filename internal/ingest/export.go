package ingest

import (
	"fmt"

	"crossborder/internal/classify"
)

// This file is the shard-export side of the cluster fan-in: a
// collector renders its committed state as a /v1/snapshot payload in
// the checkpoint (XCKP1) wire format — the same encoder and hardened
// decoder the durability layer uses — and the merge tier
// (MergeExports) rebuilds a per-shard view from it. Reusing the
// checkpoint codec means the export carries everything a merger needs
// for free: chunk blocks + class columns, the interner and
// country/publisher tables, the epoch history, and the seed/scale
// identity echo that lets the merger refuse a shard built for a
// different world. The merger derives the user partition it checks for
// overlap and the global fixpoint from the rows, the merged snapshot
// derives its Table 1 stats and flow maps from them, and neither reads
// sequence numbers, so exports carry none.

// EncodeSnapshot serializes the collector's committed state as one
// XCKP1 payload (the /v1/snapshot response body): the latest published
// epoch. Pending and in-flight events are not included — they are not
// classified rows yet; the fan-in tier observes them after the shard's
// next epoch publishes. It holds the commit lock, not the ingest lock,
// so uploads go on while it encodes. The returned epoch identifies the
// encoded state for If-None-Match style caching.
func (c *Collector) EncodeSnapshot() (data []byte, epoch int, err error) {
	c.commitMu.Lock()
	defer c.commitMu.Unlock()
	data, err = c.encodeCheckpoint(0, nil, nil)
	return data, len(c.epochs), err
}

// ShardExport is one shard's decoded /v1/snapshot payload: the
// checkpoint meta plus the chunk blocks and class columns, exactly as
// a recovery would see them.
type ShardExport struct {
	meta    *ckptMeta
	blocks  [][]byte
	classes [][]classify.Class
}

// DecodeShardExport parses a /v1/snapshot payload through the
// checkpoint decoder (magic, checksum, and every declared length
// validated). An export is self-contained: a payload whose manifest
// names block segments is refused.
func DecodeShardExport(data []byte) (*ShardExport, error) {
	meta, blocks, classes, err := decodeCheckpoint(data, nil)
	if err != nil {
		return nil, fmt.Errorf("ingest: shard export: %w", err)
	}
	return &ShardExport{meta: meta, blocks: blocks, classes: classes}, nil
}

// Epoch returns the shard's committed epoch at export time.
func (e *ShardExport) Epoch() int { return len(e.meta.Epochs) }

// Rows returns the shard's dataset row count.
func (e *ShardExport) Rows() int { return e.meta.Rows }

// Visits returns the shard's first-party visit count.
func (e *ShardExport) Visits() int { return e.meta.Visits }

// Seed and Scale echo the world identity the shard was built for.
func (e *ShardExport) Seed() int64    { return e.meta.Seed }
func (e *ShardExport) Scale() float64 { return e.meta.Scale }

// History returns the shard's epoch commit log.
func (e *ShardExport) History() []EpochStat { return e.meta.Epochs }
