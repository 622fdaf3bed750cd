package classify

import (
	"encoding/binary"
	"errors"
)

// This file implements the codec's generic byte-stream stage: an
// LZ4-style block compressor in pure Go. The format is the classic
// token stream — [token: 4-bit literal length | 4-bit match length]
// [length extensions] [literals] [2-byte little-endian offset] [match
// length extensions] — with a 4-byte minimum match and offsets up to
// 64 KiB. The encoder finds matches with a hash-chain over 4-byte
// prefixes. Its step only narrows where the encoder searches (value
// boundaries of a fixed-width column); the stream format and the
// decoder are the same for every step, so blocks written with or
// without stepping decode everywhere. The decoder is hardened for
// adversarial input: every length and offset is validated against the
// declared output size before any byte moves, so forged streams error
// out instead of panicking or over-allocating (the output buffer is
// sized by the caller from a validated cap, never from the stream
// itself).

const (
	lzMinMatch   = 4     // shortest encodable match
	lzMaxOffset  = 65535 // 2-byte offsets
	lzLastBytes  = 5     // final bytes are always literals
	lzMatchLimit = 12    // no match may start this close to the end
	lzHashBits   = 14
	lzHashLen    = 1 << lzHashBits
	lzChainDepth = 12 // candidate positions examined per match attempt
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// appendLzLen emits the length-extension bytes for a run whose first 15
// went into the token nibble: rem = run - 15, as 255-terminated bytes.
// A negative rem (run < 15, fully in the nibble) emits nothing.
func appendLzLen(dst []byte, rem int) []byte {
	for ; rem >= 0; rem -= 255 {
		if rem >= 255 {
			dst = append(dst, 255)
		} else {
			dst = append(dst, byte(rem))
		}
	}
	return dst
}

// lzCompress appends the compressed form of src to dst and returns the
// extended slice, or nil when src is incompressible (the stream would
// not be smaller than src). htab and chain are caller scratch: htab
// needs lzHashLen entries, chain len(src).
//
// step is the value width of src: 1 for a byte stream, w for the raw
// bytes of a fixed-width column. With step > 1 match searches run
// only at value boundaries, a missed search advances one value, and a
// match is cut back to whole values, so every search stays aligned: in
// such a column a useful match is a run of repeated values.
func lzCompress(src []byte, dst []byte, htab, chain []int32, step int) []byte {
	if len(src) < lzMatchLimit+lzMinMatch {
		return nil
	}
	limit := len(dst) + len(src) - 1 // emit at most len(src)-1 bytes
	for i := range htab[:lzHashLen] {
		htab[i] = -1
	}
	chain = chain[:len(src)]

	stride := max(step, 2)
	mfLimit := len(src) - lzMatchLimit
	matchEnd := len(src) - lzLastBytes
	s, anchor := 0, 0
	for s < mfLimit {
		v := binary.LittleEndian.Uint32(src[s:])
		h := lzHash(v)
		bestLen, bestPos := 0, -1
		cand := htab[h]
		for depth := 0; cand >= 0 && depth < lzChainDepth; depth++ {
			if s-int(cand) > lzMaxOffset {
				break
			}
			if binary.LittleEndian.Uint32(src[cand:]) == v {
				l := lzMinMatch
				for s+l < matchEnd && src[int(cand)+l] == src[s+l] {
					l++
				}
				if l > bestLen {
					bestLen, bestPos = l, int(cand)
				}
			}
			cand = chain[cand]
		}
		chain[s] = htab[h]
		htab[h] = int32(s)
		bestLen -= bestLen % step
		if bestLen < lzMinMatch {
			s += step
			continue
		}

		// A stepped search skips the bytes between value boundaries, so
		// the match may reach back into the pending literals: a value
		// often ends in the same bytes as the one before its match.
		ms := s
		for step > 1 && ms > anchor && ms > s-bestPos && src[ms-1] == src[ms-1-(s-bestPos)] {
			ms--
		}

		// Emit literals [anchor,ms) then the match [ms,s+bestLen).
		litLen := ms - anchor
		ml := s + bestLen - ms - lzMinMatch
		token := byte(0)
		if litLen >= 15 {
			token = 15 << 4
		} else {
			token = byte(litLen) << 4
		}
		if ml >= 15 {
			token |= 15
		} else {
			token |= byte(ml)
		}
		dst = append(dst, token)
		dst = appendLzLen(dst, litLen-15)
		dst = append(dst, src[anchor:ms]...)
		off := s - bestPos
		dst = append(dst, byte(off), byte(off>>8))
		dst = appendLzLen(dst, ml-15)
		if len(dst) >= limit {
			return nil
		}

		// Index the interior of the match (every other byte, or every
		// value) so later repeats of its content remain findable — the
		// extra inserts buy ratio for the templated cascade patterns at
		// half the insertion cost of full indexing.
		for p := s + stride; p < s+bestLen && p < mfLimit; p += stride {
			hp := lzHash(binary.LittleEndian.Uint32(src[p:]))
			chain[p] = htab[hp]
			htab[hp] = int32(p)
		}
		s += bestLen
		anchor = s
	}

	// Tail literals.
	litLen := len(src) - anchor
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	dst = append(dst, token)
	dst = appendLzLen(dst, litLen-15)
	dst = append(dst, src[anchor:]...)
	if len(dst) >= limit {
		return nil
	}
	return dst
}

var (
	errLZCorrupt = errors.New("classify: corrupt lz4 block")
)

// lzDecompress decompresses src into dst, which the caller has sized
// (len(dst) = the declared, already-validated output size). Every
// read and write is bounds-checked against the declared size; any
// mismatch — truncated input, forged lengths, offsets beyond the
// produced output, trailing garbage — returns an error.
func lzDecompress(src []byte, dst []byte) error {
	si, di := 0, 0
	for {
		if si >= len(src) {
			return errLZCorrupt
		}
		token := src[si]
		si++

		litLen := int(token >> 4)
		if litLen == 15 {
			for {
				if si >= len(src) {
					return errLZCorrupt
				}
				b := src[si]
				si++
				litLen += int(b)
				if litLen > len(dst)-di {
					return errLZCorrupt
				}
				if b != 255 {
					break
				}
			}
		}
		if litLen > len(src)-si || litLen > len(dst)-di {
			return errLZCorrupt
		}
		copy(dst[di:di+litLen], src[si:si+litLen])
		si += litLen
		di += litLen

		if si == len(src) {
			// Stream may end after a literal run — but only exactly at
			// the declared output size.
			if di != len(dst) {
				return errLZCorrupt
			}
			return nil
		}

		if len(src)-si < 2 {
			return errLZCorrupt
		}
		off := int(binary.LittleEndian.Uint16(src[si:]))
		si += 2
		if off == 0 || off > di {
			return errLZCorrupt
		}
		matchLen := int(token&15) + lzMinMatch
		if token&15 == 15 {
			for {
				if si >= len(src) {
					return errLZCorrupt
				}
				b := src[si]
				si++
				matchLen += int(b)
				if matchLen > len(dst)-di {
					return errLZCorrupt
				}
				if b != 255 {
					break
				}
			}
		}
		if matchLen > len(dst)-di {
			return errLZCorrupt
		}
		if off >= matchLen {
			copy(dst[di:di+matchLen], dst[di-off:])
		} else {
			// Overlapping match: byte-wise forward copy replicates the
			// period, which is the format's intent.
			for k := 0; k < matchLen; k++ {
				dst[di+k] = dst[di-off+k]
			}
		}
		di += matchLen
	}
}
