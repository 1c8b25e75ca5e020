package experiments

import (
	"fmt"
	"sort"
	"time"

	"wiclean/internal/relational"
	"wiclean/internal/relational/rowref"
)

// ColumnarGuard is the throughput-guard section of BENCH_4.json: both
// engines timed on one pinned single-equality hash join (the interned-probe
// shape that dominates mining). The guard records the rowref/columnar time
// RATIO rather than absolute throughput, so re-measuring it on a different
// machine cancels out host speed — TestColumnarThroughputGuard re-runs the
// same workload and fails if the measured ratio falls more than 10% below
// the committed one (i.e. the columnar engine lost ground against the
// in-tree reference implementation).
type ColumnarGuard struct {
	BuildRows       int     `json:"build_rows"`
	ProbeRows       int     `json:"probe_rows"`
	KeyDomain       int     `json:"key_domain"`
	Iterations      int     `json:"iterations"`
	ColumnarSeconds float64 `json:"columnar_seconds"` // median of iterations
	RowRefSeconds   float64 `json:"rowref_seconds"`   // median of iterations
	Ratio           float64 `json:"ratio"`            // rowref / columnar (>1: columnar faster)
}

// ColumnarResult is the BENCH_4.json payload: the throughput guard.
type ColumnarResult struct {
	Guard ColumnarGuard `json:"guard"`
}

// Guard workload shape: a single-equality hash join — the interned-probe
// fast path that carries the mining loop — big enough (~470k output rows)
// that one iteration takes tens of milliseconds and the median is stable.
const (
	guardBuildRows  = 4000
	guardProbeRows  = 120000
	guardKeyDomain  = 1024
	guardIterations = 15
)

// guardTables builds the pinned guard workload deterministically (an LCG,
// so the bytes never depend on math/rand's generator version).
func guardTables() (l, r *relational.Table) {
	s := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) relational.Value {
		s = s*6364136223846793005 + 1442695040888963407
		return relational.Value(int(s>>33) % mod)
	}
	l = relational.NewTable("k", "a")
	for i := 0; i < guardBuildRows; i++ {
		l.Append(relational.Row{next(guardKeyDomain), relational.Value(i)})
	}
	r = relational.NewTable("k", "b")
	for i := 0; i < guardProbeRows; i++ {
		r.Append(relational.Row{next(guardKeyDomain), relational.Value(i)})
	}
	return l, r
}

// MeasureColumnarGuard times both engines on the pinned guard workload and
// returns the filled guard section. Exported so the regression test re-runs
// the exact measurement the committed BENCH_4.json recorded.
func MeasureColumnarGuard() ColumnarGuard {
	l, r := guardTables()
	spec := relational.JoinSpec{EqL: []int{0}, EqR: []int{0}, LOut: []int{1}, ROut: []int{1}}
	colEng := &relational.Engine{Strategy: relational.HashStrategy, Arena: &relational.Arena{}}
	rowEng := &relational.Engine{Strategy: relational.HashStrategy, Arena: &relational.Arena{}, Impl: rowref.New()}
	once := func(eng *relational.Engine) time.Duration {
		start := time.Now()
		out := eng.Join(l, r, spec)
		d := time.Since(start)
		eng.Release(out)
		return d
	}
	// The two engines are timed in interleaved rounds — columnar then
	// rowref inside every round — so CPU frequency drift, cache warmup and
	// background load shift both sides of the ratio alike instead of
	// landing on whichever engine happened to run in the slower block.
	// Median-of-rounds then discards outliers in BOTH directions (best-of
	// is one-sided: a single lucky draw for either engine skews the ratio).
	cols := make([]time.Duration, guardIterations)
	rows := make([]time.Duration, guardIterations)
	for i := 0; i < guardIterations; i++ {
		cols[i] = once(colEng)
		rows[i] = once(rowEng)
	}
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	g := ColumnarGuard{
		BuildRows:       guardBuildRows,
		ProbeRows:       guardProbeRows,
		KeyDomain:       guardKeyDomain,
		Iterations:      guardIterations,
		ColumnarSeconds: median(cols).Seconds(),
		RowRefSeconds:   median(rows).Seconds(),
	}
	if g.ColumnarSeconds > 0 {
		g.Ratio = g.RowRefSeconds / g.ColumnarSeconds
	}
	return g
}

// FormatColumnarGuard renders one guard measurement.
func FormatColumnarGuard(g ColumnarGuard) string {
	return fmt.Sprintf("Columnar throughput guard: %d×%d-row hash join over %d keys, median of %d rounds\n"+
		"columnar %s, rowref %s, ratio %.2fx\n",
		g.BuildRows, g.ProbeRows, g.KeyDomain, g.Iterations,
		formatDuration(time.Duration(g.ColumnarSeconds*float64(time.Second))),
		formatDuration(time.Duration(g.RowRefSeconds*float64(time.Second))),
		g.Ratio)
}
