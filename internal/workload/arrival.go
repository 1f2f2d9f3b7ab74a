package workload

import (
	"math"

	"repro/internal/sweep"
	"repro/internal/sysc"
)

// minGap keeps sampled interarrival gaps away from zero so a heavy-tailed
// draw cannot collapse into a same-instant raise storm.
const minGap = 10 * sysc.Us

// sampler draws the next interarrival gap of one arrival process from its
// own RNG stream. Periodic processes ignore the stream entirely so their
// schedule is independent of draw order.
type sampler struct {
	a   Arrival
	rng *sweep.RNG
}

func newSampler(a Arrival, rng *sweep.RNG) *sampler {
	return &sampler{a: a, rng: rng}
}

// next returns the gap until the following arrival.
func (s *sampler) next() sysc.Time {
	mean := s.a.Period.Sim()
	var gap sysc.Time
	switch s.a.Kind {
	case ArrivalPoisson:
		gap = sysc.Time(float64(mean) * expDraw(s.rng))
	case ArrivalGamma:
		// Gamma(k, theta) with mean k*theta: draw Gamma(k, 1) and scale by
		// mean/k so the configured Period stays the mean interarrival.
		gap = sysc.Time(float64(mean) / s.a.Shape * gammaDraw(s.rng, s.a.Shape))
	default: // ArrivalPeriodic
		gap = mean
	}
	if gap < minGap {
		gap = minGap
	}
	return gap
}

// expDraw samples a unit-mean exponential via inversion.
func expDraw(rng *sweep.RNG) float64 {
	return -math.Log(1 - float64(rng.Float64()))
}

// gammaDraw samples Gamma(shape, 1) with the Marsaglia-Tsang squeeze
// method; shapes below 1 use the standard U^(1/k) boost.
func gammaDraw(rng *sweep.RNG, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normDraw(rng)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v)
		u := rng.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if u > 0 && math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// normDraw samples a standard normal via Box-Muller.
func normDraw(rng *sweep.RNG) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	v := rng.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}
