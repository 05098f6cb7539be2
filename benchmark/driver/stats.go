package main

import (
	"math"
	"sort"
)

// summary is how a metric measured several times is reported: the
// median, the quartiles and the number of values behind them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
	// Better is "higher" or "lower".
	Better string `json:"better"`
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// medianSpread estimates how far the median itself moves between
// runs of N values each: the values' spread shrinks by about sqrt(N).
func (s summary) medianSpread() float64 {
	if s.N == 0 {
		return 0
	}
	return s.spread() / math.Sqrt(float64(s.N))
}

// quantile interpolates at position q of (0,1) between the order
// statistics of sorted, placing them at i/(n+1) as Python's
// statistics.quantiles does by default, and clamping to the ends.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(values []float64, unit, better string) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return summary{
		Median: quantile(v, 0.5), Q1: quantile(v, 0.25), Q3: quantile(v, 0.75),
		N: len(v), Unit: unit, Better: better,
	}
}

// single is the summary of a metric measured once in a run.
func single(v float64, unit, better string) summary {
	return summary{Median: v, Q1: v, Q3: v, N: 1, Unit: unit, Better: better}
}

// worseBy is how much worse b is than a, as a share of a, for a
// metric where better says which direction is good; negative when b
// is the better one.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
