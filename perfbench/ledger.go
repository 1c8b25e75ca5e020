package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// usage is a point-in-time reading of the process's clocks and the Go
// runtime's allocation and GC counters. Differences of two readings taken
// around a call are the call's cost.
type usage struct {
	wall     time.Time
	cpu      time.Duration // user + system CPU of the whole process
	allocB   uint64        // cumulative heap bytes allocated
	allocN   uint64        // cumulative heap objects allocated
	gcCycles uint64
	gcCPU    float64 // cumulative GC CPU seconds (runtime estimate)
	allCPU   float64 // cumulative CPU seconds the runtime accounts for
	gcPause  float64 // cumulative stop-the-world GC pause seconds
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage takes one reading. Not safe for concurrent use (it reuses
// usageSamples); the benchmark reads from its main goroutine only.
func readUsage() usage {
	metrics.Read(usageSamples)
	u := usage{
		wall:     time.Now(),
		cpu:      processCPU(),
		allocB:   usageSamples[0].Value.Uint64(),
		allocN:   usageSamples[1].Value.Uint64(),
		gcCycles: usageSamples[2].Value.Uint64(),
		gcCPU:    usageSamples[3].Value.Float64(),
		allCPU:   usageSamples[4].Value.Float64(),
	}
	// runtime/metrics keeps GC pauses only as a bucketed histogram; the
	// exact total comes from MemStats.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.gcPause = time.Duration(ms.PauseTotalNs).Seconds()
	return u
}

// processCPU returns the user+system CPU time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is the difference of two usage readings.
type cost struct {
	wall     time.Duration
	cpu      time.Duration
	allocB   uint64
	allocN   uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
	gcPause  float64
}

func (a usage) to(b usage) cost {
	return cost{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		allocB:   b.allocB - a.allocB,
		allocN:   b.allocN - a.allocN,
		gcCycles: b.gcCycles - a.gcCycles,
		gcCPU:    b.gcCPU - a.gcCPU,
		allCPU:   b.allCPU - a.allCPU,
		gcPause:  b.gcPause - a.gcPause,
	}
}

// row is one sequential top-level call of a pass: the layer it entered and
// what the call cost.
type row struct {
	layer string
	cost
}

// ledger records the sequential top-level calls of one pass. Only calls
// made one after another on the pass's goroutine belong here, so that the
// rows add up to the pass's wall time; nested work (store fetches,
// per-window jobs, coordinator dispatches) is reported as busy time by
// the seams instead.
type ledger struct {
	rows []row
}

// time runs f as one ledger row.
func (l *ledger) time(layer string, f func() error) error {
	before := readUsage()
	err := f()
	l.rows = append(l.rows, row{layer: layer, cost: before.to(readUsage())})
	return err
}

// sum adds up the rows of one layer (all rows when layer is empty).
func (l *ledger) sum(layer string) cost {
	var c cost
	for _, r := range l.rows {
		if layer != "" && r.layer != layer {
			continue
		}
		c.wall += r.wall
		c.cpu += r.cpu
		c.allocB += r.allocB
		c.allocN += r.allocN
		c.gcCycles += r.gcCycles
		c.gcCPU += r.gcCPU
		c.allCPU += r.allCPU
		c.gcPause += r.gcPause
	}
	return c
}

const mb = 1 << 20

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianRecord folds per-pass metric maps into one map of per-key medians.
func medianRecord(recs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range recs {
		for k := range r {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, r[k])
		}
		out[k] = median(xs)
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// workers is the parallelism every workload is configured with: one worker
// per core, as on a deployed host.
func workers() int { return runtime.NumCPU() }
