package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"time"
)

// probeRef is the probe time the timed metrics are scaled to.
const probeRef = 100 * time.Millisecond

// probe times a fixed mix of the work this system does most — map
// updates, varint encoding, hashing, sorting and allocation — using the
// standard library only, so no change to the repository can move it.
// Its time tracks how fast the machine is running right now: on a
// shared machine that drifts by a fifth over minutes, which would
// otherwise move every timed metric with it.
func probe() time.Duration {
	t := time.Now()
	rng := rand.New(rand.NewPCG(1, 2))
	counts := make(map[uint64]uint32)
	var buf []byte
	keys := make([]uint64, 0, 1<<18)
	for i := 0; i < 1<<18; i++ {
		k := rng.Uint64() % (1 << 16)
		counts[k]++
		buf = binary.AppendUvarint(buf, k)
		keys = append(keys, rng.Uint64())
	}
	sum := sha256.Sum256(buf)
	slices.Sort(keys)
	probeSink = int(sum[0]) + len(counts) + int(keys[len(keys)/2]&1)
	return time.Since(t)
}

// probeSink keeps the probe's work observable.
var probeSink int

// slowdown is how much slower than the probe reference the machine ran,
// from the median of a run's probes: 1.25 means the probe took 125 ms.
// Scaled to the reference, times are divided by it and rates
// multiplied.
func slowdown(probes []float64) float64 {
	return median(probes) / probeRef.Seconds()
}
