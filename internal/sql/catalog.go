package sql

import (
	"fmt"
	"sort"
	"strings"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/intern"
	"wiclean/internal/relational"
	"wiclean/internal/taxonomy"
)

// taxID converts an engine value back to an entity handle.
func taxID(v relational.Value) taxonomy.EntityID { return taxonomy.EntityID(v) }

// Database is a queryable view of a revision history: the actions relation
// plus the label dictionary needed to render results.
type Database struct {
	Catalog Catalog
	Labels  *intern.Dict
	History *dump.History
}

// NewDatabase builds the canonical relations over a history within a
// window:
//
//	actions(op, src, label, dst, t)   op: 1 = add, 0 = remove
//	reduced(op, src, label, dst, t)   the reduced action set of the window
//
// This is the relational face of Figure 1 — the same rows, queryable.
func NewDatabase(h *dump.History, w action.Window) *Database {
	db := &Database{Catalog: Catalog{}, Labels: intern.NewDict(), History: h}
	cols := []string{"op", "src", "label", "dst", "t"}
	raw := relational.NewTable(cols...)
	all := h.AllActions(w)
	for _, a := range all {
		raw.Append(db.row(a))
	}
	red := relational.NewTable(cols...)
	for _, a := range action.Reduce(all) {
		red.Append(db.row(a))
	}
	db.Catalog["actions"] = raw
	db.Catalog["reduced"] = red
	return db
}

func (db *Database) row(a action.Action) relational.Row {
	op := relational.Value(0)
	if a.Op == action.Add {
		op = 1
	}
	return relational.Row{
		op,
		relational.Value(a.Edge.Src),
		relational.Value(db.Labels.Intern(string(a.Edge.Label))),
		relational.Value(a.Edge.Dst),
		relational.Value(a.T),
	}
}

// Query runs SQL against the database.
func (db *Database) Query(query string) (*Result, error) {
	return Exec(db.Catalog, query)
}

// Render formats a result with entity and label names resolved: columns
// named src/dst (qualified or not) render entity names, label columns
// render labels, everything else renders numerically. Output rows are
// capped at limit (<=0 = all).
func (db *Database) Render(res *Result, limit int) string {
	reg := db.History.Registry()
	var b strings.Builder
	b.WriteString(strings.Join(res.Columns, " | "))
	b.WriteByte('\n')
	for i, row := range res.Table.Rows() {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&b, "... (%d rows)\n", res.Table.Len())
			break
		}
		for j, v := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			switch {
			case v.IsNull():
				b.WriteString("NULL")
			case strings.HasSuffix(res.Columns[j], "src") || strings.HasSuffix(res.Columns[j], "dst"):
				b.WriteString(reg.Name(taxID(v)))
			case strings.HasSuffix(res.Columns[j], "label"):
				b.WriteString(db.labelName(v))
			default:
				fmt.Fprintf(&b, "%d", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// labelName returns the label a value interns, or "" for a value the
// dictionary never minted.
func (db *Database) labelName(v relational.Value) string {
	if v < 0 || int(v) >= db.Labels.Len() {
		return ""
	}
	return db.Labels.String(uint32(v))
}

// Tables lists the catalog's table names, sorted.
func (db *Database) Tables() []string {
	out := make([]string, 0, len(db.Catalog))
	for name := range db.Catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RenderJoin writes the realization-growing query of §4.2 as SQL text: the
// equijoin on glued variables and the inequality residuals of a fresh
// variable, projected to the pattern's attributes. The miner's EXPLAIN.
func RenderJoin(lName string, lCols []string, rName string, rCols []string, spec relational.JoinSpec) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	first := true
	add := func(s string) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(s)
	}
	for _, i := range spec.LOut {
		add(lName + "." + lCols[i])
	}
	for _, i := range spec.ROut {
		add(rName + "." + rCols[i])
	}
	fmt.Fprintf(&b, " FROM %s JOIN %s ON ", lName, rName)
	firstOn := true
	on := func(s string) {
		if !firstOn {
			b.WriteString(" AND ")
		}
		firstOn = false
		b.WriteString(s)
	}
	for k := range spec.EqL {
		on(fmt.Sprintf("%s.%s = %s.%s", lName, lCols[spec.EqL[k]], rName, rCols[spec.EqR[k]]))
	}
	for k := range spec.NeqL {
		on(fmt.Sprintf("%s.%s <> %s.%s", lName, lCols[spec.NeqL[k]], rName, rCols[spec.NeqR[k]]))
	}
	if firstOn {
		on("1 = 1")
	}
	return b.String()
}
