package geo

import "math/rand"

// lfSource is math/rand's rand.NewSource generator, an additive lagged
// Fibonacci generator x[n] = x[n-607] + x[n-273] mod 2⁶⁴, with the same
// Seed and the same stream. Only Seed differs in how it works.
//
// math/rand fills the 607-word register from a serial Lehmer chain
// x[k+1] = 48271·x[k] mod (2³¹−1): word i packs draws 21+3i, 22+3i and
// 23+3i of the chain started at the reduced seed, XORed with a fixed
// "cooked" word. Walking the chain costs 1,841 dependent steps per seed.
// Since x[k] = 48271^k·x[0] mod (2³¹−1) (Park and Miller, CACM 1988),
// Seed reads each draw off a table of powers instead, so the words are
// independent of one another.
type lfSource struct {
	tap, feed int
	vec       [lfLen]uint64
}

const (
	lfLen  = 607 // register length, the long lag
	lfTap  = 273 // short lag
	lfMod  = 1<<31 - 1
	lfMult = 48271
)

var (
	// lfPow[k] is 48271^(21+k) mod (2³¹−1): the multiplier taking the
	// reduced seed to the seeding chain's draw 21+k.
	lfPow [3 * lfLen]uint32
	// lfCooked is math/rand's cooked table, recovered from the stream of
	// rand.NewSource(1) rather than copied.
	lfCooked [lfLen]uint64
)

func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = p * lfMult % lfMod
	}
	for k := range lfPow {
		lfPow[k] = uint32(p)
		p = p * lfMult % lfMod
	}

	// Output n of a freshly seeded source adds the register word at feed
	// (333−n) mod 607 to the word at tap 606−n and stores the sum at
	// feed. Over the first 607 outputs every word is the feed once, and
	// the tap word 606−n was already overwritten, by output n−273, from
	// n = 273 on. So outputs 273..606 give the words at feeds 60..0 and
	// 606..334, and outputs 0..272 then give words 333..61.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [lfLen]uint64
	for n := range out {
		out[n] = src.Uint64()
	}
	feed := func(n int) int { return (lfLen - lfTap - 1 - n + lfLen) % lfLen }
	for n := lfTap; n < lfLen; n++ {
		vec[feed(n)] = out[n] - out[n-lfTap]
	}
	for n := 0; n < lfTap; n++ {
		vec[feed(n)] = out[n] - vec[lfLen-1-n]
	}
	var seeded lfSource
	seeded.Seed(1) // lfCooked is still zero: the bare Lehmer words
	for i := range lfCooked {
		lfCooked[i] = vec[i] ^ seeded.vec[i]
	}
}

// Seed is math/rand's seeding: the seed is reduced mod 2³¹−1 into
// [1, 2³¹−2], with 0 replaced by 89482311.
func (s *lfSource) Seed(seed int64) {
	s.tap, s.feed = 0, lfLen-lfTap
	seed %= lfMod
	if seed < 0 {
		seed += lfMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		pow := lfPow[3*i : 3*i+3]
		s.vec[i] = x*uint64(pow[0])%lfMod<<40 ^ x*uint64(pow[1])%lfMod<<20 ^ x*uint64(pow[2])%lfMod ^ lfCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *lfSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}
