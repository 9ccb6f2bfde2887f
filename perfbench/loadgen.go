package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one scheduled request as the load generator saw it. Latency
// is charged from Intended, not from Sent: when the generator runs late
// because earlier requests stalled, the wait counts against every
// request the stall delayed (no coordinated omission).
type sample struct {
	Intended time.Time
	Sent     time.Time
	Done     time.Time
	Err      error
}

// Latency is the user-visible time: intended send to response.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Intended) }

// Late is how far behind schedule the generator sent the request.
func (s sample) Late() time.Duration { return s.Sent.Sub(s.Intended) }

// RoundTrip is send to response, the part of Latency spent on the wire
// and in the server.
func (s sample) RoundTrip() time.Duration { return s.Done.Sub(s.Sent) }

// runOpenLoop issues n requests on a fixed schedule — request i is due at
// start + i*interval — from `senders` goroutines. Each sender takes the
// next request in schedule order, sleeps until it is due (never when it
// is already late) and calls send(i). The schedule never waits for
// responses, so a slow server receives the same offered load as a fast
// one. runOpenLoop returns when every request has completed.
func runOpenLoop(start time.Time, n int, interval time.Duration, senders int, send func(i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := send(i)
				out[i] = sample{Intended: due, Sent: sent, Done: time.Now(), Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// minTail is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minTail = 10

// tailPercentile returns the highest percentile (0..100) of n samples
// that still has at least minTail samples beyond it, and false when n is
// too small for any. With n = 1000 that is p99; with n = 400, p97.5.
func tailPercentile(n int) (float64, bool) {
	if n <= minTail {
		return 0, false
	}
	return 100 * float64(n-minTail) / float64(n), true
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted ascending values; the value at rank ceil(q/100*n). The caller
// checks that enough samples lie beyond it (see tailPercentile).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := rank(len(sorted), q)
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}

// rank is the 0-based nearest rank of the q-th percentile of n values.
// The epsilon keeps q = 100*(n-k)/n from rounding up a rank.
func rank(n int, q float64) int {
	return int(math.Ceil(q/100*float64(n)-1e-9)) - 1
}

// dist is a sorted sample of one measured quantity, in milliseconds.
type dist struct {
	vals []float64
}

func newDist(ms []float64) dist {
	v := append([]float64(nil), ms...)
	sort.Float64s(v)
	return dist{vals: v}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// P returns the q-th percentile, or NaN for an empty sample.
func (d dist) P(q float64) float64 { return percentile(d.vals, q) }

// Tail is the highest percentile with minTail samples beyond it, as
// "p98.75=12.3 ms (n=800)"; "n/a" when the sample is too small.
func (d dist) Tail() string {
	q, ok := tailPercentile(len(d.vals))
	if !ok {
		return fmt.Sprintf("n/a (n=%d)", len(d.vals))
	}
	return fmt.Sprintf("p%g=%.3f ms (n=%d)", q, d.P(q), len(d.vals))
}

// nWindows is the number of equal slices of the timed phase whose
// percentiles the gated latency metrics take the median of.
const nWindows = 20

// windowed splits vals (one per scheduled request, in schedule order;
// NaN for requests that do not count) into nWindows slices and returns
// the median over slices of each slice's q-th percentile. One burst of
// noise, or one background compaction, then moves at most one slice.
func windowed(vals []float64, q float64) float64 {
	var per []float64
	for w := 0; w < nWindows; w++ {
		var in []float64
		for _, v := range vals[w*len(vals)/nWindows : (w+1)*len(vals)/nWindows] {
			if !math.IsNaN(v) {
				in = append(in, v)
			}
		}
		if len(in) > 0 {
			per = append(per, newDist(in).P(q))
		}
	}
	return median(per)
}
