package ingest

import (
	"encoding/binary"
	"fmt"
)

// The compact binary framing: a fixed magic, the batch header as
// uvarints, then one length-prefixed frame per event. Strings are
// uvarint-length-prefixed UTF-8. The format exists because NDJSON costs
// ~3x the bytes and a JSON decode per event on the hot upload path.
//
//	"XBB1" | uvarint user | uvarint seq | uvarint count
//	count × ( uvarint frameLen | frame )
//	frame: kind(1) | uvarint at | str pub
//	       requests append: str fqdn | str path | str ref |
//	                        ip(4, big-endian) | flags(1)
//
// flags: bit0 = HTTPS, bit1 = HasArgs.
//
// The decoder is hardened against adversarial input (see FuzzDecodeBinary):
// every declared length is validated against the bytes actually present
// before any allocation, so malformed frames error out — they never
// panic and never over-allocate. The collector does not decode uploads
// into Events at all: scanBinary validates the frames in place, the
// accepted frames wait for their epoch as wire bytes, and the committer
// parses them (parseFrame) inside its classify workers.

// binaryMagic introduces every binary batch.
var binaryMagic = [4]byte{'X', 'B', 'B', '1'}

const (
	flagHTTPS   = 1 << 0
	flagHasArgs = 1 << 1

	// minEventEncoded is the smallest possible encoded event: a visit
	// with empty publisher (frameLen=3: kind + at + publen).
	minEventEncoded = 4
)

// AppendBinary appends the batch's binary encoding to dst and returns
// the extended slice.
func AppendBinary(dst []byte, b Batch) []byte {
	dst = appendHeader(dst, b.User, b.Seq, uint64(len(b.Events)))
	var frame []byte
	for _, ev := range b.Events {
		frame = frame[:0]
		frame = append(frame, ev.Kind)
		frame = binary.AppendUvarint(frame, uint64(ev.At))
		frame = appendString(frame, ev.Publisher)
		if ev.Kind == KindRequest {
			frame = appendString(frame, ev.FQDN)
			frame = appendString(frame, ev.Path)
			frame = appendString(frame, ev.RefFQDN)
			frame = binary.BigEndian.AppendUint32(frame, ev.IP)
			var fl byte
			if ev.HTTPS {
				fl |= flagHTTPS
			}
			if ev.HasArgs {
				fl |= flagHasArgs
			}
			frame = append(frame, fl)
		}
		dst = binary.AppendUvarint(dst, uint64(len(frame)))
		dst = append(dst, frame...)
	}
	return dst
}

// EncodeBinary returns the batch's binary encoding.
func EncodeBinary(b Batch) []byte { return AppendBinary(nil, b) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// binReader walks a byte slice with explicit bounds checking. The
// first read that runs past the end records err and exhausts the
// reader, so later reads return zero values and a caller checks err
// once after a run of reads.
type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) uvarint() uint64 {
	if off := r.off; off < len(r.buf) && r.buf[off] < 0x80 {
		r.off = off + 1
		return uint64(r.buf[off])
	}
	return r.uvarintLong()
}

func (r *binReader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("ingest: truncated or malformed uvarint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) bytes(n int) []byte {
	off := r.off
	if uint(n) > uint(len(r.buf)-off) {
		r.fail(fmt.Errorf("ingest: declared length %d exceeds %d remaining bytes", n, len(r.buf)-off))
		return nil
	}
	r.off = off + n
	return r.buf[off : off+n]
}

func (r *binReader) byte() byte {
	if b := r.bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// str reads uvarint-length-prefixed bytes: a string field or a frame.
func (r *binReader) str() []byte { return r.bytes(int(r.uvarint())) }

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.buf)
}

// batchHeader is a binary batch's header; frames holds its event frames
// exactly as they arrived, still length-prefixed.
type batchHeader struct {
	user   int32
	seq    uint64
	count  uint64
	frames []byte
}

// readHeader parses the magic and the batch header, checking the
// declared count against MaxBatchEvents and against the bytes that
// follow before anything is sized from it.
func readHeader(data []byte) (batchHeader, error) {
	r := &binReader{buf: data}
	if magic := r.bytes(len(binaryMagic)); string(magic) != string(binaryMagic[:]) {
		return batchHeader{}, fmt.Errorf("ingest: bad batch magic")
	}
	user, seq, count := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return batchHeader{}, r.err
	}
	if user > 1<<31-1 {
		return batchHeader{}, fmt.Errorf("ingest: user id %d out of range", user)
	}
	if count > MaxBatchEvents {
		return batchHeader{}, errTooManyEvents
	}
	// A forged count cannot exceed what the remaining bytes could hold.
	if remain := len(data) - r.off; count > uint64(remain/minEventEncoded)+1 {
		return batchHeader{}, fmt.Errorf("ingest: count %d impossible for %d remaining bytes", count, remain)
	}
	return batchHeader{user: int32(uint32(user)), seq: seq, count: count, frames: data[r.off:]}, nil
}

// DecodeBinary parses one binary batch. Malformed input — bad magic,
// truncated frames, forged counts or lengths — returns an error; the
// decoder never panics, and it never allocates more than the input
// size justifies.
func DecodeBinary(data []byte) (Batch, error) {
	h, err := readHeader(data)
	if err != nil {
		return Batch{}, err
	}
	// The speculative pre-allocation is capped: a decoded Event is ~20x
	// larger than its minimal encoding, so count alone must not size
	// the slice.
	b := Batch{User: h.user, Seq: h.seq, Events: make([]Event, 0, min(h.count, 4096))}
	err = eachFrame(h, func(_ uint64, v *frameView) error {
		b.Events = append(b.Events, v.event())
		return nil
	})
	if err != nil {
		return Batch{}, err
	}
	return b, nil
}

// eachFrame parses the batch's frames in order and calls fn on each;
// the batch must hold exactly h.count frames.
func eachFrame(h batchHeader, fn func(i uint64, v *frameView) error) error {
	r := &binReader{buf: h.frames}
	var v frameView
	for i := uint64(0); i < h.count; i++ {
		frame := r.str()
		if r.err != nil {
			return r.err
		}
		if err := parseFrame(frame, &v); err != nil {
			return fmt.Errorf("ingest: event %d: %w", i, err)
		}
		if err := fn(i, &v); err != nil {
			return err
		}
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("ingest: %d trailing bytes after batch", len(r.buf)-r.off)
	}
	return nil
}

// frameView is one parsed event frame whose strings are still slices
// of the wire bytes: the collector validates and classifies from it
// without copying a string it only looks up.
type frameView struct {
	kind            byte
	at              int64
	pub             []byte
	fqdn, path, ref []byte
	ip              uint32
	flags           byte
}

// event copies the frame into an Event.
func (v frameView) event() Event {
	return Event{
		Kind:      v.kind,
		At:        v.at,
		Publisher: string(v.pub),
		FQDN:      string(v.fqdn),
		Path:      string(v.path),
		RefFQDN:   string(v.ref),
		IP:        v.ip,
		HTTPS:     v.flags&flagHTTPS != 0,
		HasArgs:   v.flags&flagHasArgs != 0,
	}
}

// parseFrame parses one event frame into v without allocating.
func parseFrame(frame []byte, v *frameView) error {
	r := binReader{buf: frame}
	*v = frameView{kind: r.byte(), at: int64(r.uvarint()), pub: r.str()}
	switch v.kind {
	case KindVisit:
	case KindRequest:
		v.fqdn, v.path, v.ref = r.str(), r.str(), r.str()
		if ip := r.bytes(4); ip != nil {
			v.ip = binary.BigEndian.Uint32(ip)
		}
		v.flags = r.byte()
	default:
		if r.err == nil {
			return fmt.Errorf("%w: unknown event kind 0x%02x", ErrBadEvent, v.kind)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(frame) {
		return fmt.Errorf("%d trailing bytes in frame", len(frame)-r.off)
	}
	return nil
}

// scanBinary validates an upload in place: the batch must decode (the
// DecodeBinary rules), name a known user, and every event must have a
// known kind and publisher, and requests a non-empty FQDN. Publisher
// lookups index the map with the frame's bytes, so a valid batch is
// checked without allocating.
func (c *Collector) scanBinary(data []byte) (batchHeader, error) {
	h, err := readHeader(data)
	if err != nil {
		return h, err
	}
	if _, ok := c.users[h.user]; !ok {
		return h, fmt.Errorf("%w: %d", ErrUnknownUser, h.user)
	}
	return h, eachFrame(h, func(i uint64, v *frameView) error {
		if _, ok := c.pubs[string(v.pub)]; !ok {
			return fmt.Errorf("%w: event %d: %q", ErrUnknownPublisher, i, v.pub)
		}
		if v.kind == KindRequest && len(v.fqdn) == 0 {
			return fmt.Errorf("%w: event %d has empty FQDN", ErrBadEvent, i)
		}
		return nil
	})
}

// skipFrames returns frames without its first n frames. The frames
// were validated by scanBinary.
func skipFrames(frames []byte, n uint64) []byte {
	r := &binReader{buf: frames}
	for ; n > 0; n-- {
		r.str()
	}
	return frames[r.off:]
}

// nextFrame parses the first of frames, which scanBinary validated,
// into v and returns the frames after it.
func nextFrame(frames []byte, v *frameView) []byte {
	r := binReader{buf: frames}
	parseFrame(r.str(), v)
	return frames[r.off:]
}

// journalRecord returns the WAL record of a batch's fresh frames, those
// from sequence number next on: the batch as it arrived when all of it
// is fresh, else the fresh frames under a new header.
func journalRecord(raw []byte, h batchHeader, next uint64, fresh []byte) []byte {
	if next == h.seq {
		return raw
	}
	return append(appendHeader(nil, h.user, next, h.seq+h.count-next), fresh...)
}

// appendHeader appends a binary batch header for count frames.
func appendHeader(dst []byte, user int32, seq, count uint64) []byte {
	dst = append(dst, binaryMagic[:]...)
	dst = binary.AppendUvarint(dst, uint64(uint32(user)))
	dst = binary.AppendUvarint(dst, seq)
	return binary.AppendUvarint(dst, count)
}
