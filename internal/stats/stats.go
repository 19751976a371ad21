// Package stats is the numeric substrate for sourcecurrents.
//
// The algorithms in this repository are Bayesian and iterative; they need
// log-space arithmetic: clamped probabilities, a stable log-sum-exp and
// normalization of log-weights into a probability vector. Every function is
// deterministic.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ClampProb limits x to the open probability interval (eps, 1-eps) so that
// logs and odds stay finite. It is the standard guard used throughout the
// iterative solvers.
func ClampProb(x float64) float64 {
	const eps = 1e-9
	return Clamp(x, eps, 1-eps)
}

// LogSumExp returns log(sum(exp(xs))) computed stably. It returns -Inf for
// an empty slice, matching the sum of an empty set of probabilities.
func LogSumExp(xs ...float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	var sum float64
	for _, x := range xs {
		sum += math.Exp(x - max)
	}
	return max + math.Log(sum)
}

// NormalizeLogInto exponentiates and normalizes the log-weights logw into a
// probability vector written to dst (len(dst) must equal len(logw); dst may
// alias logw, so the solver loops normalize into reusable scratch without
// allocating). All-zero weights (every logw -Inf) become uniform. It returns
// ErrEmpty for an empty slice.
func NormalizeLogInto(dst, logw []float64) error {
	if len(logw) == 0 {
		return ErrEmpty
	}
	z := LogSumExp(logw...)
	if math.IsInf(z, -1) {
		// All weights are zero; fall back to uniform.
		u := 1 / float64(len(logw))
		for i := range dst {
			dst[i] = u
		}
		return nil
	}
	for i, w := range logw {
		dst[i] = math.Exp(w - z)
	}
	return nil
}

// ZScore returns (x - mean) / sd, or 0 when sd == 0.
func ZScore(x, mean, sd float64) float64 {
	if sd == 0 {
		return 0
	}
	return (x - mean) / sd
}
