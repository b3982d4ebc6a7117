package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tally accumulates one run's outcomes. Products are counted one per value
// set: a batched or dist lane is one product.
type tally struct {
	attempted int64 // products asked for
	completed int64 // products returned and equal to the expected product
	failed    int64 // errors, shed or refused requests, and wrong products
	wrong     int64 // products returned but different from the expected one
	rounds    int64 // model rounds summed over completed products
	samples   []sample
	// start and end bound the timed loop: its start and its last completion.
	start, end time.Time
}

// sample is one completed request.
type sample struct {
	end      time.Time
	lat      time.Duration
	products int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.completed += o.completed
	t.failed += o.failed
	t.wrong += o.wrong
	t.rounds += o.rounds
	t.samples = append(t.samples, o.samples...)
}

// outcome is what one request reports.
type outcome struct {
	products int           // products the request carried
	lat      time.Duration // client-observed time, send to last byte read
	rounds   int           // model rounds of each product
	err      error         // transport error or refusal: every product failed
	wrong    int           // products returned but not equal to the oracle
}

func (t *tally) record(o outcome) {
	t.attempted += int64(o.products)
	if o.err != nil {
		t.failed += int64(o.products)
		return
	}
	ok := o.products - o.wrong
	t.completed += int64(ok)
	t.wrong += int64(o.wrong)
	t.failed += int64(o.wrong)
	t.rounds += int64(ok) * int64(o.rounds)
	if ok > 0 {
		t.samples = append(t.samples, sample{time.Now(), o.lat, ok})
	}
}

// closedLoop runs clients goroutines, each sending its next request only
// when the previous one has completed, until d has elapsed.
func closedLoop(clients int, d time.Duration, op func(client int) outcome) tally {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				parts[c].record(op(c))
			}
		}(c)
	}
	wg.Wait()
	all := tally{start: start, end: time.Now()}
	for c := range parts {
		all.add(parts[c])
	}
	return all
}

// statWindows is how many equal windows a timed loop is cut into. Each
// timing metric is the median over the windows of that window's value, so
// a burst of contention from outside that hits one or two windows does not
// move it.
const statWindows = 5

// windowed holds the per-window values of a timed loop.
type windowed struct {
	rate, p50  []float64 // products/s and median latency in ms
	minSamples int       // fewest samples in any window
}

func (t *tally) windows() windowed {
	var w windowed
	span := t.end.Sub(t.start) / statWindows
	if span <= 0 {
		return w
	}
	buckets := make([][]time.Duration, statWindows)
	products := make([]int, statWindows)
	for _, s := range t.samples {
		k := min(int(s.end.Sub(t.start)/span), statWindows-1)
		buckets[k] = append(buckets[k], s.lat)
		products[k] += s.products
	}
	w.minSamples = len(t.samples)
	for k, b := range buckets {
		w.minSamples = min(w.minSamples, len(b))
		if len(b) == 0 {
			continue
		}
		w.rate = append(w.rate, float64(products[k])/span.Seconds())
		w.p50 = append(w.p50, ms(quantile(b, 0.50)))
	}
	return w
}

// latencies returns every sample's latency.
func (t *tally) latencies() []time.Duration {
	out := make([]time.Duration, len(t.samples))
	for i, s := range t.samples {
		out[i] = s.lat
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
