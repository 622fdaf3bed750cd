package netsim

import (
	"math/rand"

	"crossborder/internal/geodata"
)

// RTTModel produces synthetic round-trip times between countries. The
// model is the standard geolocation-constraint one: propagation delay is
// bounded below by great-circle distance at ~100 km per RTT millisecond,
// plus a last-mile/queueing component. Active geolocation (internal/geo)
// relies on the lower bound being physically sound: a probe can never
// measure an RTT lower than the speed-of-light limit.
type RTTModel struct {
	// LastMileMs is the fixed access-network latency added to every
	// measurement (default 4ms when zero).
	LastMileMs float64
	// JitterMs is the upper bound of uniform random queueing delay
	// (default 6ms when zero).
	JitterMs float64
	// PathStretch multiplies the great-circle propagation delay to model
	// non-ideal fibre routes (default 1.3 when zero).
	PathStretch float64
}

func (m RTTModel) lastMile() float64 {
	if m.LastMileMs <= 0 {
		return 4
	}
	return m.LastMileMs
}

func (m RTTModel) jitter() float64 {
	if m.JitterMs <= 0 {
		return 6
	}
	return m.JitterMs
}

func (m RTTModel) stretch() float64 {
	if m.PathStretch <= 0 {
		return 1.3
	}
	return m.PathStretch
}

// Measure returns one RTT sample in milliseconds between two countries.
// rng supplies the jitter; results are always >= the physical minimum for
// the distance.
func (m RTTModel) Measure(rng *rand.Rand, from, to geodata.Country) float64 {
	return m.MeasureAt(rng, countryIndex(from), countryIndex(to))
}

// MeasureAt is Measure for countries given by geodata.Index; a negative
// index stands for an unknown country.
func (m RTTModel) MeasureAt(rng *rand.Rand, from, to int) float64 {
	// Unknown country: behave like an intercontinental path so the
	// geolocator cannot accidentally "confirm" a bogus location.
	d := 9000.0
	if from >= 0 && to >= 0 {
		d = geodata.DistanceKmAt(from, to)
	}
	base := geodata.MinRTTms(d) * m.stretch()
	return base + m.lastMile() + rng.Float64()*m.jitter()
}

// MinPossible returns the physical lower bound for an RTT between the two
// countries, used by the geolocator's speed-of-light filter.
func (m RTTModel) MinPossible(from, to geodata.Country) float64 {
	return m.MinPossibleAt(countryIndex(from), countryIndex(to))
}

// MinPossibleAt is MinPossible for countries given by geodata.Index; a
// negative index stands for an unknown country, whose bound is 0.
func (m RTTModel) MinPossibleAt(from, to int) float64 {
	if from < 0 || to < 0 {
		return 0
	}
	return geodata.MinRTTms(geodata.DistanceKmAt(from, to))
}

// countryIndex returns geodata.Index(c), or -1 for an unknown code.
func countryIndex(c geodata.Country) int {
	if i, ok := geodata.Index(c); ok {
		return i
	}
	return -1
}
