package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Heartbeat and membership wire formats. Both frames open with a
// 4-byte magic and a CRC32C (Castagnoli) over the body, like every
// other frame in this repo (WAL records, checkpoints, chunk blocks);
// the decoders validate every declared length against hard caps before
// allocating, so arbitrary input fails fast instead of ballooning
// memory (FuzzDecodeHeartbeat / FuzzDecodeMembers).
//
//	heartbeat  = "XHB1" crc32c body
//	body       = str(node) str(addr) uvarint(epoch) uvarint(rows)
//	members    = "XMB1" crc32c uvarint(count) member*
//	member     = str(node) str(addr) byte(state)
//	             uvarint(epoch) uvarint(rows) uvarint(lastSeenUnixMs)
//	str        = uvarint(len) bytes
var (
	hbMagic  = [4]byte{'X', 'H', 'B', '1'}
	memMagic = [4]byte{'X', 'M', 'B', '1'}
)

// Wire caps: a node name or address is a hostname-sized string, a
// membership view is a cluster-sized list.
const (
	maxWireString = 256
	maxWireMember = 4096
)

var wireCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame reports an undecodable heartbeat or membership frame.
var ErrBadFrame = errors.New("cluster: bad wire frame")

// Heartbeat is one shard's liveness announcement: who it is, where its
// HTTP API listens, and its epoch high-water mark, so registries (and
// through them, the fan-in tier) know both that the shard lives and
// how far its committed state has advanced.
type Heartbeat struct {
	// Node is the shard's stable name — its ring identity. It must not
	// change across restarts.
	Node string
	// Addr is the shard's advertised base URL (e.g. "http://10.0.0.7:8477").
	// A restarted collector may advertise a new address under the same
	// node name; clients re-resolve through the registry.
	Addr string
	// Epoch is the shard's committed epoch high-water mark.
	Epoch uint64
	// Rows is the shard's dataset row count at that epoch.
	Rows uint64
}

// EncodeHeartbeat renders hb in wire form.
func EncodeHeartbeat(hb Heartbeat) []byte {
	body := appendWireString(nil, hb.Node)
	body = appendWireString(body, hb.Addr)
	body = binary.AppendUvarint(body, hb.Epoch)
	body = binary.AppendUvarint(body, hb.Rows)
	return frame(hbMagic, body)
}

// DecodeHeartbeat parses a wire heartbeat, rejecting bad magic, a
// checksum mismatch, oversized strings, an empty node name, or
// trailing bytes.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	body, err := unframe(hbMagic, data)
	if err != nil {
		return Heartbeat{}, err
	}
	var hb Heartbeat
	if hb.Node, body, err = wireString(body); err != nil {
		return Heartbeat{}, fmt.Errorf("%w: node: %v", ErrBadFrame, err)
	}
	if hb.Node == "" {
		return Heartbeat{}, fmt.Errorf("%w: empty node name", ErrBadFrame)
	}
	if hb.Addr, body, err = wireString(body); err != nil {
		return Heartbeat{}, fmt.Errorf("%w: addr: %v", ErrBadFrame, err)
	}
	if hb.Epoch, body, err = wireUvarint(body); err != nil {
		return Heartbeat{}, fmt.Errorf("%w: epoch: %v", ErrBadFrame, err)
	}
	if hb.Rows, body, err = wireUvarint(body); err != nil {
		return Heartbeat{}, fmt.Errorf("%w: rows: %v", ErrBadFrame, err)
	}
	if len(body) != 0 {
		return Heartbeat{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(body))
	}
	return hb, nil
}

// MemberRecord is one row of a wire membership view: a Member flattened
// for the members?format=wire view FetchMembers reads.
type MemberRecord struct {
	Node       string
	Addr       string
	State      State
	Epoch      uint64
	Rows       uint64
	LastSeenMs uint64 // unix milliseconds of the last direct heartbeat
}

// EncodeMembers renders a membership view in wire form.
func EncodeMembers(recs []MemberRecord) []byte {
	body := binary.AppendUvarint(nil, uint64(len(recs)))
	for _, m := range recs {
		body = appendWireString(body, m.Node)
		body = appendWireString(body, m.Addr)
		body = append(body, byte(m.State))
		body = binary.AppendUvarint(body, m.Epoch)
		body = binary.AppendUvarint(body, m.Rows)
		body = binary.AppendUvarint(body, m.LastSeenMs)
	}
	return frame(memMagic, body)
}

// DecodeMembers parses a wire membership view with the same hardening
// as DecodeHeartbeat, plus a member-count cap and per-member state
// validation.
func DecodeMembers(data []byte) ([]MemberRecord, error) {
	body, err := unframe(memMagic, data)
	if err != nil {
		return nil, err
	}
	count, body, err := wireUvarint(body)
	if err != nil {
		return nil, fmt.Errorf("%w: count: %v", ErrBadFrame, err)
	}
	if count > maxWireMember {
		return nil, fmt.Errorf("%w: %d members exceeds the %d cap", ErrBadFrame, count, maxWireMember)
	}
	// Minimum 6 bytes per member (two empty strings, state, three
	// zero uvarints): reject counts the body cannot possibly hold
	// before allocating.
	if count*6 > uint64(len(body)) {
		return nil, fmt.Errorf("%w: %d members in %d bytes", ErrBadFrame, count, len(body))
	}
	recs := make([]MemberRecord, 0, count)
	for k := uint64(0); k < count; k++ {
		var m MemberRecord
		if m.Node, body, err = wireString(body); err != nil {
			return nil, fmt.Errorf("%w: member %d node: %v", ErrBadFrame, k, err)
		}
		if m.Node == "" {
			return nil, fmt.Errorf("%w: member %d has an empty node name", ErrBadFrame, k)
		}
		if m.Addr, body, err = wireString(body); err != nil {
			return nil, fmt.Errorf("%w: member %d addr: %v", ErrBadFrame, k, err)
		}
		if len(body) == 0 {
			return nil, fmt.Errorf("%w: member %d truncated", ErrBadFrame, k)
		}
		m.State = State(body[0])
		body = body[1:]
		if m.State > StateDead {
			return nil, fmt.Errorf("%w: member %d state 0x%02x", ErrBadFrame, k, byte(m.State))
		}
		if m.Epoch, body, err = wireUvarint(body); err != nil {
			return nil, fmt.Errorf("%w: member %d epoch: %v", ErrBadFrame, k, err)
		}
		if m.Rows, body, err = wireUvarint(body); err != nil {
			return nil, fmt.Errorf("%w: member %d rows: %v", ErrBadFrame, k, err)
		}
		if m.LastSeenMs, body, err = wireUvarint(body); err != nil {
			return nil, fmt.Errorf("%w: member %d last-seen: %v", ErrBadFrame, k, err)
		}
		recs = append(recs, m)
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(body))
	}
	return recs, nil
}

func frame(magic [4]byte, body []byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, wireCastagnoli))
	return append(out, body...)
}

func unframe(magic [4]byte, data []byte) ([]byte, error) {
	if len(data) < 8 || string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	sum := binary.LittleEndian.Uint32(data[4:8])
	body := data[8:]
	if crc32.Checksum(body, wireCastagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return body, nil
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func wireString(b []byte) (string, []byte, error) {
	n, rest, err := wireUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > maxWireString {
		return "", nil, fmt.Errorf("string of %d bytes exceeds the %d cap", n, maxWireString)
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("string of %d bytes truncated at %d", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

func wireUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errors.New("bad uvarint")
	}
	return v, b[n:], nil
}
