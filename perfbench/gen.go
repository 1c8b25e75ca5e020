package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator ("gen" in the ledger). It drives a send function over
// a fixed mix of request indices, either as a closed loop (each client
// sends its next request when the previous one completes) or as an open
// loop (requests are due on a fixed schedule whether or not earlier ones
// have completed).

// send issues the request for one mix entry; a non-nil error is a failed
// request.
type send func(ctx context.Context, item int) error

// phase is what one load phase measured.
type phase struct {
	mode    string // "closed" or "open"
	sent    int
	ok      int
	failed  int
	elapsed time.Duration
	lat     []float64 // per request, ms; +Inf for a failed request
	lag     []float64 // open loop: ms each request was sent after it was due
}

// closedLoop sends every entry of mix using the given number of clients.
// Latency is timed from each send.
func closedLoop(ctx context.Context, clients int, mix []int, do send) phase {
	p := phase{mode: "closed", lat: make([]float64, len(mix))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix) {
					return
				}
				t0 := time.Now()
				p.lat[i] = latencyMs(t0, do(ctx, mix[i]))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.count()
	return p
}

// openLoop sends mix[i] when it is due, at start + i/perSecond. Latency is
// timed from the due time, so a stall in the server or in the generator
// counts against every request that waited behind it; lag records how late
// the generator actually sent each request. At most maxInFlight requests
// are outstanding; a request due while all are busy waits for a slot, and
// that wait shows in both its lag and its latency.
func openLoop(ctx context.Context, perSecond float64, maxInFlight int, mix []int, do send) phase {
	p := phase{mode: "open", lat: make([]float64, len(mix)), lag: make([]float64, len(mix))}
	slots := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range mix {
		due := start.Add(time.Duration(float64(i) / perSecond * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		p.lag[i] = float64(time.Since(due)) / float64(time.Millisecond)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			p.lat[i] = latencyMs(due, do(ctx, mix[i]))
		}(i, due)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.count()
	return p
}

// latencyMs is the time since t0 in ms, or +Inf when the request failed: a
// failure misses every latency limit.
func latencyMs(t0 time.Time, err error) float64 {
	if err != nil {
		return math.Inf(1)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

func (p *phase) count() {
	p.sent = len(p.lat)
	for _, l := range p.lat {
		if math.IsInf(l, 1) {
			p.failed++
		} else {
			p.ok++
		}
	}
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the value is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of the samples and
// whether at least minBeyond samples lie beyond it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], n-1-k >= minBeyond
}

// tailLevels are the percentiles tail considers, highest first. The list
// stops at p99 so that a workload with a fixed request count always
// reports the same percentile, however many iterations a run fits.
var tailLevels = []float64{0.99, 0.9, 0.5}

// tail returns the highest percentile of the samples that has at least
// minBeyond samples beyond it, with its label. With too few samples for
// any, it returns the maximum, labelled "max".
func tail(samples []float64) (float64, string) {
	for _, q := range tailLevels {
		if v, ok := percentile(samples, q); ok {
			return v, fmt.Sprintf("p%g", q*100)
		}
	}
	v, _ := percentile(samples, 1)
	return v, "max"
}

// zipfMix draws n item indices out of k from a Zipf distribution with
// exponent s. The item holding each popularity rank is itself drawn from
// the seed, so two seeds give different hot sets; one seed always gives
// the same mix.
func zipfMix(seed int64, s float64, k, n int) []int {
	r := rand.New(rand.NewSource(seed))
	byRank := r.Perm(k)
	z := rand.NewZipf(r, s, 1, uint64(k-1))
	mix := make([]int, n)
	for i := range mix {
		mix[i] = byRank[z.Uint64()]
	}
	return mix
}

// distinct counts the distinct items of a mix: on a cold cache that holds
// them all, the misses.
func distinct(mix []int) int {
	seen := map[int]bool{}
	for _, i := range mix {
		seen[i] = true
	}
	return len(seen)
}
