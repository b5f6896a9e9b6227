package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// window is one slice of a timed phase: the latency of every read that
// completed in it (failed ones at failedReadMS) and its length.
type window struct {
	latMS []float64
	ok    int
	secs  float64
}

// windowed returns the median over windows of each window's p50 and
// p99 latency and its rate of successful reads. A host hiccup spoils a
// window or two, not the whole figure.
func windowed(ws []window) (p50, p99, rate float64) {
	var p50s, p99s, rates []float64
	for _, w := range ws {
		if len(w.latMS) == 0 {
			continue
		}
		p50s = append(p50s, quantile(w.latMS, 0.50))
		p99s = append(p99s, quantile(w.latMS, 0.99))
		rates = append(rates, float64(w.ok)/w.secs)
	}
	return median(p50s), median(p99s), median(rates)
}
