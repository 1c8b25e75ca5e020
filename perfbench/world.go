package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
)

// worldSpec fixes the shape of a workload's synthetic world: domain, seed
// entity count, span and generator seed. The benchmark's --seed does not
// change the shape; it relabels the world (see relabel).
type worldSpec struct {
	domain    string
	seeds     int
	years     int
	worldSeed uint64
}

// input is everything a workload's measured phase starts from: the
// registry and seeds the program would load from a universe file, and the
// raw revision dump (JSON Lines, as `wiclean gen` writes revisions.jsonl).
type input struct {
	reg      *taxonomy.Registry
	seeds    []taxonomy.EntityID
	seedType taxonomy.Type
	span     action.Window
	dump     []byte // JSON Lines revision dump
	revs     int    // revisions in dump
	edits    []action.Action
	prefix   string // the relabelling prefix of every entity name
}

// buildInput generates the world, relabels it with the run seed and
// renders its revision dump. This is the set-up every workload shares.
func buildInput(spec worldSpec, seed int64) (*input, error) {
	d, err := synth.DomainByName(spec.domain)
	if err != nil {
		return nil, err
	}
	p := synth.DefaultParams(d, spec.seeds)
	p.Seed = spec.worldSeed
	p.Span = action.Window{Start: 0, End: action.Time(spec.years) * action.Year}
	w, err := synth.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generating %s world: %w", spec.domain, err)
	}
	prefix := fmt.Sprintf("R%d ", seed)
	rw, err := relabel(w, prefix, seed)
	if err != nil {
		return nil, err
	}
	revs := rw.RevisionDump()
	var buf bytes.Buffer
	if err := dump.WriteRevisions(&buf, revs); err != nil {
		return nil, err
	}
	return &input{
		reg:      rw.Reg,
		seeds:    rw.Seeds,
		seedType: d.SeedType,
		span:     rw.Span,
		dump:     buf.Bytes(),
		revs:     len(revs),
		edits:    rw.History.AllActions(rw.Span),
		prefix:   prefix,
	}, nil
}

// relabel returns a copy of the world whose entities are registered in a
// seed-shuffled order (so every entity gets a different ID) under
// seed-prefixed names. The copy is isomorphic to the original: the same
// revision graph, hence the same mining work and the same mined patterns,
// while nothing the program sees — names, IDs, ID order — repeats between
// seeds. The prefix keeps names in the same lexical order, so rendered
// infoboxes list links in the same order too.
func relabel(w *synth.World, prefix string, seed int64) (*synth.World, error) {
	old := w.Reg
	order := rand.New(rand.NewSource(seed)).Perm(old.Len())
	reg := taxonomy.NewRegistry(old.Taxonomy())
	newID := make([]taxonomy.EntityID, old.Len())
	for _, i := range order {
		id := taxonomy.EntityID(i)
		nid, err := reg.Add(prefix+old.Name(id), old.TypeOf(id))
		if err != nil {
			return nil, fmt.Errorf("relabelling: %w", err)
		}
		newID[i] = nid
	}
	out := &synth.World{Domain: w.Domain, Reg: reg, Span: w.Span, History: dump.NewHistory(reg)}
	for _, s := range w.Seeds {
		out.Seeds = append(out.Seeds, newID[s])
	}
	all := w.History.AllActions(w.Span)
	for i := range all {
		all[i].Edge.Src = newID[all[i].Edge.Src]
		all[i].Edge.Dst = newID[all[i].Edge.Dst]
	}
	out.History.AddActions(all...)
	return out, nil
}
