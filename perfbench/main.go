// Command perfbench is WiClean's benchmark. It runs one workload in this
// process and prints every metric with its unit, then one JSON result line:
//
//	go run . --workload mine-soccer-cluster --seed 1 --seconds 24 --trace 0
//
// After set-up, one warm-up pass runs before the clock starts; it is
// checked but not measured. --trace 0 reports the end-to-end metrics from
// untraced passes. --trace 1 alternates untraced and traced passes and
// reports the per-layer ledger from the traced ones. A failed correctness
// check exits with status 1.
// See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A run sets its workload up at least minSetups times, and more while the
// set-ups have taken less than setupBudget in all, up to maxSetups.
// setup_s is the median; the last set-up is the one measured.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "input seed: relabels the world and draws the /suggest mix")
	secs := flag.Int("seconds", 12, "how long to keep starting measured passes")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer ledger from traced passes; 0 the end-to-end metrics")
	flag.Parse()
	// The workloads keep one worker per core, but the process gets one P:
	// on a host whose cores are shared, wall time with two Ps swings with
	// how often both are scheduled at once (a 5-seed spread of 0.21
	// against 0.04 for CPU time), and with one it follows the CPU time.
	runtime.GOMAXPROCS(1)

	w, err := findWorkload(*name)
	if err != nil || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (%v)\n", err)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*secs)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passStat is what the run keeps of one pass.
type passStat struct {
	traced   bool
	wall     float64 // s, over the pass's measured span
	cpu      float64 // s, over the same span
	passWall float64 // s, the whole pass
	rate     float64
	opLat    []float64
	layers   map[string]float64
}

// run sets the workload up, then starts measured passes
// until the time is up (and, when traced, until both kinds have run).
func run(w workload, seed int64, d time.Duration, traced bool) (*result, error) {
	fmt.Printf("perfbench %s seed %d: GOMAXPROCS %d, %d workers, %s, %d-second run, trace %v\n",
		w.name, seed, runtime.GOMAXPROCS(0), workers(), runtime.Version(), int(d.Seconds()), traced)
	var e env
	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		e = nil // let the collection below free the previous set-up
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := e.prepare(seed); err != nil {
		return nil, fmt.Errorf("preparing: %w", err)
	}

	res := &result{Correct: true, Metrics: map[string]value{}}
	fail := func(format string, args ...any) {
		if res.Correct {
			fmt.Printf("CHECK FAILED: "+format+"\n", args...)
		}
		res.Correct = false
	}
	// A warm-up pass runs before the clock starts. After it, a pass is
	// started only if one more of the median length still ends within d,
	// so a run measures about d.
	var passes []passStat
	var walls []float64
	start := time.Now()
	for i := -1; ; i++ {
		tracedPass := traced && i%2 == 1
		label := fmt.Sprintf("pass %d", i)
		switch {
		case i < 0:
			label = "warm-up pass"
		case tracedPass:
			label += " (traced)"
		}
		st, err := runPass(e, tracedPass, res, func(format string, args ...any) {
			fail(label+": "+format, args...)
		})
		if err != nil {
			fail("%s: %v", label, err)
			break
		}
		fmt.Printf("%s: wall %.4gs cpu %.4gs rate %.5g/s", label, st.wall, st.cpu, st.rate)
		if len(st.opLat) > 1 {
			p50, _ := percentile(st.opLat, 0.5)
			t, tailLabel := tail(st.opLat)
			fmt.Printf(" latency p50 %.4gms %s %.4gms", p50, tailLabel, t)
		}
		fmt.Println()
		if i < 0 {
			start = time.Now()
			continue
		}
		passes = append(passes, st)
		walls = append(walls, st.passWall)
		next := time.Since(start) + time.Duration(median(walls)*float64(time.Second))
		if next > d && (!traced || i >= 1) {
			break
		}
	}

	if traced {
		layers, err := ledgerMetrics(e, passes)
		if err != nil {
			return nil, err
		}
		for k := range layers {
			if !isPerLayer(k) {
				return nil, fmt.Errorf("ledger figure %q is not a per-layer metric", k)
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = value{finite(layers[m.name]), m.unit}
			fmt.Printf("%-30s %14.6g %s\n", m.name, layers[m.name], m.unit)
		}
	} else {
		endToEndMetrics(res, setups, passes)
	}
	return res, nil
}

// runPass runs one pass and checks it, counting its operations into res.
// A failed check is reported through fail; an error means the pass could
// not run.
func runPass(e env, tracedPass bool, res *result, fail func(string, ...any)) (passStat, error) {
	runtime.GC()
	l := &ledger{}
	before := readUsage()
	pr, err := e.pass(l, tracedPass)
	c := before.to(readUsage())
	res.Attempted += max(pr.attempted, 1)
	if err != nil {
		res.Failed++
		return passStat{}, err
	}
	res.Failed += pr.failed
	if err := pr.check(); err != nil {
		fail("%v", err)
	}
	span := c
	if pr.span != nil {
		span = *pr.span
	}
	st := passStat{traced: tracedPass, wall: span.wall.Seconds(), cpu: span.cpu.Seconds(), passWall: c.wall.Seconds(), rate: pr.rate, opLat: pr.opLat}
	if st.rate == 0 {
		st.rate = pr.work / st.wall
	}
	if st.opLat == nil {
		st.opLat = []float64{st.wall * 1000}
	}
	if tracedPass {
		st.layers = pr.layers(l)
		rows, wall := l.sum("").wall.Seconds(), c.wall.Seconds()
		st.layers["ledger.wall_s"] = wall
		st.layers["ledger.rows_s"] = rows
		st.layers["ledger.gap_share"] = (wall - rows) / wall
		if math.Abs(wall-rows) > 0.05*wall {
			fail("ledger rows add up to %.3fs of a %.3fs pass", rows, wall)
		}
		st.layers["runtime.alloc_mb"] = float64(c.allocB) / mb
		st.layers["runtime.gc_cycles"] = float64(c.gcCycles)
		st.layers["runtime.gc_cpu_share"] = ratio(c.gcCPU, c.allCPU)
	}
	return st, nil
}

// endToEndMetrics fills the end-to-end figures from the untraced passes
// and prints each with its sample count.
func endToEndMetrics(res *result, setups []float64, passes []passStat) {
	var walls, cpus, rates, lat []float64
	for _, p := range passes {
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		rates = append(rates, p.rate)
		lat = append(lat, p.opLat...)
	}
	tailV, tailLabel := tail(lat)
	vals := map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(walls),
		"cpu_s":            median(cpus),
		"peak_rss_mb":      peakRSSMB(),
		"throughput_per_s": median(rates),
		"latency_p50_ms":   median(lat),
	}
	notes := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d set-ups, max %.4g", len(setups), maxOf(setups)),
		"wall_s":           fmt.Sprintf("median of %d passes, max %.4g", len(walls), maxOf(walls)),
		"cpu_s":            fmt.Sprintf("median of %d passes, max %.4g", len(cpus), maxOf(cpus)),
		"peak_rss_mb":      "whole run",
		"throughput_per_s": fmt.Sprintf("median of %d passes", len(rates)),
		"latency_p50_ms":   fmt.Sprintf("median of %d operations; %s %.4g ms", len(lat), tailLabel, tailV),
	}
	for _, m := range endToEnd {
		v := finite(vals[m.name])
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-18s %14.6g %-5s %s\n", m.name, v, m.unit, notes[m.name])
	}
}

// ledgerMetrics folds the traced passes into the per-layer record: the
// median of each figure over traced passes, the workload's own extra
// measurements, and the tracing overhead against the untraced passes.
func ledgerMetrics(e env, passes []passStat) (map[string]float64, error) {
	var recs []map[string]float64
	var tracedWall, plainWall []float64
	for _, p := range passes {
		if p.traced {
			recs = append(recs, p.layers)
			tracedWall = append(tracedWall, p.wall)
		} else {
			plainWall = append(plainWall, p.wall)
		}
	}
	m := medianRecord(recs)
	if x, ok := e.(interface {
		extraLayers() (map[string]float64, error)
	}); ok {
		extra, err := x.extraLayers()
		if err != nil {
			return nil, err
		}
		for k, v := range extra {
			m[k] = v
		}
	}
	m["trace.overhead_share"] = ratio(median(tracedWall)-median(plainWall), median(plainWall))
	return m, nil
}

// finite maps +Inf, which a percentile over failed requests can be, to the
// largest float: JSON has no infinity.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
