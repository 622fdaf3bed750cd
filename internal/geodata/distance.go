package geodata

import "math"

// earthRadiusKm is the mean Earth radius used by the haversine formula.
const earthRadiusKm = 6371.0

// HaversineKm returns the great-circle distance in kilometres between two
// latitude/longitude pairs (degrees).
func HaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const degToRad = math.Pi / 180
	phi1, phi2 := lat1*degToRad, lat2*degToRad
	dPhi := (lat2 - lat1) * degToRad
	dLambda := (lon2 - lon1) * degToRad

	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLambda/2)*math.Sin(dLambda/2)
	return 2 * earthRadiusKm * math.Atan2(math.Sqrt(a), math.Sqrt(1-a))
}

// distKm holds every ordered pair's great-circle distance, row-major by
// Index: distKm[i*len(countries)+j] is HaversineKm from country i to
// country j. Each ordered pair is computed on its own, so the table holds
// exactly what HaversineKm returns for that argument order.
var distKm []float64

func initDistances() {
	n := len(countries)
	distKm = make([]float64, n*n)
	for i, a := range countries {
		for j, b := range countries {
			distKm[i*n+j] = HaversineKm(a.Lat, a.Lon, b.Lat, b.Lon)
		}
	}
}

// DistanceKm returns the great-circle distance between two countries'
// reference cities, or -1 if either country is unknown.
func DistanceKm(a, b Country) float64 {
	ia, ok := Index(a)
	if !ok {
		return -1
	}
	ib, ok := Index(b)
	if !ok {
		return -1
	}
	return DistanceKmAt(ia, ib)
}

// DistanceKmAt is DistanceKm for two countries given by Index.
func DistanceKmAt(i, j int) float64 {
	return distKm[i*len(countries)+j]
}

// MinRTTms returns the physically minimal round-trip time in milliseconds
// for a fibre path covering the given great-circle distance. Light in fibre
// travels at roughly 2/3 c ≈ 200 km/ms one way, and real paths are longer
// than great circles; the conventional rule of thumb used by geolocation
// constraint systems is distance/100 km per RTT millisecond.
func MinRTTms(distanceKm float64) float64 {
	if distanceKm <= 0 {
		return 0
	}
	return distanceKm / 100.0
}
