package relational

// Impl is a pluggable physical-join implementation. The Engine keeps all
// strategy planning, stats bookkeeping, obs timing and spec validation in
// its own dispatch shell and delegates only the physical algorithms, so
// two Impls run under EXACTLY the same planner decisions and accounting —
// the property the difftest suite leans on when it byte-compares the
// columnar engine against the retained row-oriented reference
// (internal/relational/rowref).
//
// Contract for implementations:
//   - Join receives the already-resolved strategy (never AutoStrategy) and
//     must produce rows in the engine's canonical emission order: probe
//     rows in table order with build-side candidates in table order for
//     hash joins, sorted-run products for sort-merge, l-major scans for
//     nested loop and cross joins.
//   - Stats updates go through e.Stats: Comparisons per candidate pair
//     considered, and the interned-probe counters for every hash join with
//     exactly one equality pair — even an implementation that does not
//     take the fast path must account the join as interned-eligible so
//     Stats (and their Minus deltas) stay identical across Impls.
//   - Joins/OuterJoins/RowsOut and planner counters are handled by the
//     dispatch shell; implementations must not touch them.
//   - A join runs on the calling goroutine and starts none of its own: the
//     Engine is single-owner, and the miner already parallelizes by giving
//     each JoinWorkers worker its own Engine.
type Impl interface {
	// Name identifies the implementation in test failure messages.
	Name() string
	// Join computes the inner join under the resolved strategy.
	Join(e *Engine, l, r *Table, spec JoinSpec, strat Strategy) *Table
	// FullOuterJoin computes the null-padding outer join of Algorithm 3.
	FullOuterJoin(e *Engine, l, r *Table, spec JoinSpec) *Table
}
