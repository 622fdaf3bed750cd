package geo

import (
	"math"
	"math/rand"
	"testing"

	"crossborder/internal/netsim"
)

// lfSeeds are the seeds lfSource must agree with rand.NewSource on: the
// reduction's edges (0, ±(2³¹−1) and other multiples of it, which take
// the 89482311 fallback, 2³¹, the int64 extremes), negative seeds, the
// per-IP seeds IPMap derives, and random seeds of either sign.
func lfSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 42, -42, lfMod, -lfMod, 7 * lfMod, -3 * lfMod, lfMod - 1, lfMod + 1,
		1 << 31, -1 << 31, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, -12345678901,
	}
	for _, ip := range []netsim.IP{0, 1, 0x0a000001, 0x7fffffff, 0x80000000, 0xffffffff} {
		for _, seed := range []int64{42, 9, 3} {
			seeds = append(seeds, seed^int64(ip)*0x9e3779b9)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(rng.Uint64()), rng.Int63n(1<<32)-1<<31)
	}
	return seeds
}

func TestLFSourceMatchesMathRand(t *testing.T) {
	var src lfSource // reseeded for every seed
	for _, seed := range lfSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for i := 0; i < 2000; i++ {
			if w, g := want.Uint64(), src.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		for i := 0; i < 100; i++ {
			if w, g := want.Int63(), src.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// TestLFSourceThroughRand draws through rand.Rand, as IPMap does: Intn,
// Int31n and Float64 over bounds that do and do not reject.
func TestLFSourceThroughRand(t *testing.T) {
	bounds := []int{1, 2, 3, 25, 100, 10_007, 1 << 20, 1<<30 + 1, 1<<31 - 1}
	for _, seed := range lfSeeds() {
		src := new(lfSource)
		src.Seed(seed)
		want, got := rand.New(rand.NewSource(seed)), rand.New(src)
		for i := 0; i < 2000; i++ {
			n := bounds[i%len(bounds)]
			if w, g := want.Intn(n), got.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, n, i, g, w)
			}
			if w, g := want.Int31n(int32(n)), got.Int31n(int32(n)); g != w {
				t.Fatalf("seed %d: Int31n(%d) #%d = %d, math/rand %d", seed, n, i, g, w)
			}
			if w, g := want.Float64(), got.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}
