// Package rowref preserves the row-oriented join implementations that the
// columnar engine replaced, verbatim up to the plumbing that adapts them to
// the relational.Impl seam. It exists for exactly one consumer: the
// relational/difftest suite, which runs whole mining pipelines over both
// engines and byte-compares results, models and Stats. Keeping the old
// algorithms alive as an independent oracle is what makes the hot-path
// rewrite falsifiable; the package is retired once the columnar engine has
// survived a few releases.
//
// Everything here works on materialized rows (Table.Rows), allocating
// per-row exactly as the old engine did — do not use it outside tests.
package rowref

import (
	"sort"

	"wiclean/internal/relational"
)

// Engine is the row-oriented relational.Impl. It is stateless; all
// accounting flows through the *relational.Engine it is invoked with.
type Engine struct{}

// New returns the row-oriented reference implementation.
func New() relational.Impl { return Engine{} }

// Name identifies the implementation in difftest failure messages.
func (Engine) Name() string { return "rowref" }

// Join runs the old row-at-a-time physical joins under the strategy the
// engine shell already resolved.
func (Engine) Join(e *relational.Engine, l, r *relational.Table, spec relational.JoinSpec, strat relational.Strategy) *relational.Table {
	switch strat {
	case relational.NestedLoop:
		return nestedLoopJoin(e, l, r, spec)
	case relational.SortMerge:
		return sortMergeJoin(e, l, r, spec)
	default:
		return hashJoin(e, l, r, spec)
	}
}

// outTable assembles the join output exactly as the old engine's
// NewTable(outSchema)+append did.
func outTable(l, r *relational.Table, spec relational.JoinSpec, rows []relational.Row) *relational.Table {
	cols := make([]string, 0, len(spec.LOut)+len(spec.ROut))
	for _, i := range spec.LOut {
		cols = append(cols, l.Columns()[i])
	}
	for _, i := range spec.ROut {
		cols = append(cols, r.Columns()[i])
	}
	return relational.FromRows(cols, rows)
}

func emit(spec relational.JoinSpec, lr, rr relational.Row) relational.Row {
	out := make(relational.Row, 0, len(spec.LOut)+len(spec.ROut))
	for _, i := range spec.LOut {
		out = append(out, lr[i])
	}
	for _, i := range spec.ROut {
		out = append(out, rr[i])
	}
	return out
}

func neqOK(spec relational.JoinSpec, lr, rr relational.Row) bool {
	for k := range spec.NeqL {
		lv, rv := lr[spec.NeqL[k]], rr[spec.NeqR[k]]
		if !lv.IsNull() && !rv.IsNull() && lv == rv {
			return false
		}
	}
	return true
}

func eqOK(spec relational.JoinSpec, lr, rr relational.Row) bool {
	for k := range spec.EqL {
		lv, rv := lr[spec.EqL[k]], rr[spec.EqR[k]]
		if lv.IsNull() || rv.IsNull() || lv != rv {
			return false
		}
	}
	return true
}

// hashKey is the old FNV-1a key fold; collisions are possible, so probes
// re-verify equality with eqOK. Null keys report false.
func hashKey(r relational.Row, idx []int) (uint64, bool) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, i := range idx {
		v := r[i]
		if v.IsNull() {
			return 0, false
		}
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= prime64
		}
	}
	return h, true
}

func hashJoin(e *relational.Engine, l, r *relational.Table, spec relational.JoinSpec) *relational.Table {
	if len(spec.EqL) == 0 {
		// Degenerate cross join with residual predicates.
		var rows []relational.Row
		for _, lr := range l.Rows() {
			for _, rr := range r.Rows() {
				e.Stats.Comparisons++
				if neqOK(spec, lr, rr) {
					rows = append(rows, emit(spec, lr, rr))
				}
			}
		}
		return outTable(l, r, spec, rows)
	}
	// Interned-eligibility accounting: a single-equality hash join is the
	// shape the columnar engine probes by exact dictionary ID. The row
	// engine still runs the FNV probe, but it accounts the join (and every
	// bucket candidate) identically so Stats — and the Minus deltas the
	// parallel miner attributes per job — stay comparable across Impls.
	interned := len(spec.EqL) == 1
	if interned {
		e.Stats.InternedProbes++
	}
	// Build on the smaller side. Probes re-verify equality because keys
	// are hashes, not exact encodings.
	buildLeft := l.Len() <= r.Len()
	build, probe := l, r
	buildKeys, probeKeys := spec.EqL, spec.EqR
	if !buildLeft {
		build, probe = r, l
		buildKeys, probeKeys = spec.EqR, spec.EqL
	}
	idx := make(map[uint64][]relational.Row, build.Len())
	for _, br := range build.Rows() {
		if k, ok := hashKey(br, buildKeys); ok {
			idx[k] = append(idx[k], br)
		}
	}
	var rows []relational.Row
	for _, pr := range probe.Rows() {
		k, ok := hashKey(pr, probeKeys)
		if !ok {
			continue
		}
		for _, br := range idx[k] {
			lr, rr := br, pr
			if !buildLeft {
				lr, rr = pr, br
			}
			e.Stats.Comparisons++
			if interned {
				e.Stats.InternedProbeHits++
			}
			if eqOK(spec, lr, rr) && neqOK(spec, lr, rr) {
				rows = append(rows, emit(spec, lr, rr))
			}
		}
	}
	return outTable(l, r, spec, rows)
}

func nestedLoopJoin(e *relational.Engine, l, r *relational.Table, spec relational.JoinSpec) *relational.Table {
	var rows []relational.Row
	for _, lr := range l.Rows() {
		for _, rr := range r.Rows() {
			e.Stats.Comparisons++
			if eqOK(spec, lr, rr) && neqOK(spec, lr, rr) {
				rows = append(rows, emit(spec, lr, rr))
			}
		}
	}
	return outTable(l, r, spec, rows)
}

func sortMergeJoin(e *relational.Engine, l, r *relational.Table, spec relational.JoinSpec) *relational.Table {
	if len(spec.EqL) == 0 {
		return hashJoin(e, l, r, spec) // falls back to the cross-join path
	}
	lRows, rRows := l.Rows(), r.Rows()
	ls := sortedIdx(lRows, spec.EqL)
	rs := sortedIdx(rRows, spec.EqR)

	var rows []relational.Row
	i, j := 0, 0
	for i < len(ls) && j < len(rs) {
		lr := lRows[ls[i]]
		rr := rRows[rs[j]]
		c := compareKeys(lr, rr, spec.EqL, spec.EqR)
		switch {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			iEnd := i
			for iEnd < len(ls) && compareKeys(lRows[ls[iEnd]], rr, spec.EqL, spec.EqR) == 0 {
				iEnd++
			}
			jEnd := j
			for jEnd < len(rs) && compareKeys(lr, rRows[rs[jEnd]], spec.EqL, spec.EqR) == 0 {
				jEnd++
			}
			for a := i; a < iEnd; a++ {
				for b := j; b < jEnd; b++ {
					e.Stats.Comparisons++
					la, rb := lRows[ls[a]], rRows[rs[b]]
					if neqOK(spec, la, rb) {
						rows = append(rows, emit(spec, la, rb))
					}
				}
			}
			i, j = iEnd, jEnd
		}
	}
	return outTable(l, r, spec, rows)
}

// sortedIdx is the old index sort, kept call-for-call identical (same
// []int construction, same unstable sort.Slice, same key-only comparator)
// because the equal-key tie order it produces must match the columnar
// engine's sortedIdx permutation byte for byte.
func sortedIdx(rows []relational.Row, keys []int) []int {
	idx := make([]int, 0, len(rows))
loop:
	for i, r := range rows {
		for _, k := range keys {
			if r[k].IsNull() {
				continue loop
			}
		}
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := rows[idx[a]], rows[idx[b]]
		for _, k := range keys {
			if ra[k] != rb[k] {
				return ra[k] < rb[k]
			}
		}
		return false
	})
	return idx
}

func compareKeys(lr, rr relational.Row, lk, rk []int) int {
	for k := range lk {
		lv, rv := lr[lk[k]], rr[rk[k]]
		if lv != rv {
			if lv < rv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// FullOuterJoin is the old null-padding outer join; the engine shell
// accounts OuterJoins and RowsOut.
func (Engine) FullOuterJoin(e *relational.Engine, l, r *relational.Table, spec relational.JoinSpec) *relational.Table {
	lRows, rRows := l.Rows(), r.Rows()
	lMatched := make([]bool, len(lRows))
	rMatched := make([]bool, len(rRows))

	var rows []relational.Row
	idx := make(map[uint64][]int, len(rRows))
	for j, rr := range rRows {
		if k, ok := hashKey(rr, spec.EqR); ok {
			idx[k] = append(idx[k], j)
		}
	}
	for i, lr := range lRows {
		if k, ok := hashKey(lr, spec.EqL); ok {
			for _, j := range idx[k] {
				rr := rRows[j]
				e.Stats.Comparisons++
				if eqOK(spec, lr, rr) && neqOK(spec, lr, rr) {
					lMatched[i] = true
					rMatched[j] = true
					rows = append(rows, emit(spec, lr, rr))
				}
			}
		}
	}

	rFromL := map[int]int{} // r column -> l column
	lFromR := map[int]int{} // l column -> r column
	for k := range spec.EqL {
		rFromL[spec.EqR[k]] = spec.EqL[k]
		lFromR[spec.EqL[k]] = spec.EqR[k]
	}

	for i, lr := range lRows {
		if lMatched[i] {
			continue
		}
		rr := make(relational.Row, r.Arity())
		for j := range rr {
			rr[j] = relational.Null
			if li, ok := rFromL[j]; ok {
				rr[j] = lr[li]
			}
		}
		rows = append(rows, emit(spec, lr, rr))
	}
	for j, rr := range rRows {
		if rMatched[j] {
			continue
		}
		lr := make(relational.Row, l.Arity())
		for i := range lr {
			lr[i] = relational.Null
			if ri, ok := lFromR[i]; ok {
				lr[i] = rr[ri]
			}
		}
		rows = append(rows, emit(spec, lr, rr))
	}
	return outTable(l, r, spec, rows)
}
