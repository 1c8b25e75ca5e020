package source

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/synth"
	"wiclean/internal/taxonomy"
)

// World is a mining input: the revision store the pipeline fetches
// through (a source stack built from Options), the entity registry, the
// seed set and the revision span.
type World struct {
	// Store serves the revision histories.
	Store *Store
	// Mem is the fully materialized history, present only with
	// -source memory; lazy sources never hold one.
	Mem *dump.History
	// Reg is the entity registry the histories and seeds resolve against.
	Reg *taxonomy.Registry
	// Seeds are the seed entities Algorithm 2 mines from.
	Seeds []taxonomy.EntityID
	// SeedType is the type of the first seed.
	SeedType taxonomy.Type
	// Span is the revision span of the whole log.
	Span action.Window
	// Skipped counts action records dropped for referencing unknown
	// entities (-source memory over a data directory only).
	Skipped int
}

// LoadWorld resolves the shared input flags into a World. The registry
// and seed set come from data, a directory written by 'wiclean gen'
// (universe.jsonl, seeds.txt, actions.jsonl), or, when data is empty,
// from the synthetic generator for domain at the given seed count and
// random seed. The actions come from the source opts selects: memory
// materializes them, dump streams the JSONL log lazily (opts.Path
// defaults to data/actions.jsonl), and http fetches from a remote
// /history endpoint. The store fetches under ctx.
func LoadWorld(ctx context.Context, data, domain string, seeds int, seed uint64, opts Options) (*World, error) {
	kind := opts.Kind
	if kind == "" {
		kind = KindMemory
	}
	if kind == KindDump && data == "" {
		return nil, fmt.Errorf("-source dump needs -data (or -source-path plus a -data universe)")
	}
	if kind == KindHTTP && opts.URL == "" {
		return nil, fmt.Errorf("-source http needs -source-url")
	}

	w := &World{}
	if data != "" {
		reg, ids, err := loadUniverse(data)
		if err != nil {
			return nil, err
		}
		w.Reg, w.Seeds, w.SeedType = reg, ids, reg.TypeOf(ids[0])
		switch kind {
		case KindMemory:
			if w.Mem, w.Skipped, err = loadActions(data, reg); err != nil {
				return nil, err
			}
			w.Span = w.Mem.Span()
		case KindDump:
			if opts.Path == "" {
				opts.Path = filepath.Join(data, "actions.jsonl")
			}
		}
	} else {
		d, err := synth.DomainByName(domain)
		if err != nil {
			return nil, err
		}
		p := synth.DefaultParams(d, seeds)
		p.Seed = seed
		sw, err := synth.Generate(p)
		if err != nil {
			return nil, err
		}
		w.Reg, w.Seeds, w.SeedType = sw.Reg, sw.Seeds, d.SeedType
		if kind == KindMemory {
			w.Mem, w.Span = sw.History, sw.Span
		}
	}

	// Lazy sources never materialize the log, so the revision span — which
	// Algorithm 2 needs before it can split the timeline — is learned from
	// the source itself.
	switch kind {
	case KindDump:
		f, err := os.Open(opts.Path)
		if err != nil {
			return nil, err
		}
		span, n, err := ScanSpan(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("%s holds no action records", opts.Path)
		}
		w.Span = span
	case KindHTTP:
		spanCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		span, err := NewHTTP(opts.URL, w.Reg, nil).Span(spanCtx)
		if err != nil {
			return nil, fmt.Errorf("fetching remote span: %w", err)
		}
		w.Span = span
	}

	st, err := opts.Store(ctx, w.Mem, w.Reg)
	if err != nil {
		return nil, err
	}
	w.Store = st
	return w, nil
}

// loadUniverse reads universe.jsonl and seeds.txt from a 'wiclean gen'
// directory.
func loadUniverse(dir string) (*taxonomy.Registry, []taxonomy.EntityID, error) {
	uf, err := os.Open(filepath.Join(dir, "universe.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	defer uf.Close()
	reg, err := dump.ReadUniverse(uf)
	if err != nil {
		return nil, nil, err
	}
	sf, err := os.Open(filepath.Join(dir, "seeds.txt"))
	if err != nil {
		return nil, nil, err
	}
	defer sf.Close()
	var seeds []taxonomy.EntityID
	sc := bufio.NewScanner(sf)
	for sc.Scan() {
		name := strings.TrimSpace(sc.Text())
		if name == "" {
			continue
		}
		id, ok := reg.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("seeds.txt references unknown entity %q", name)
		}
		seeds = append(seeds, id)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("seeds.txt holds no seed entities")
	}
	return reg, seeds, nil
}

// loadActions materializes actions.jsonl into an in-memory history — the
// -source memory path — and reports how many records it skipped for
// referencing unknown entities.
func loadActions(dir string, reg *taxonomy.Registry) (*dump.History, int, error) {
	af, err := os.Open(filepath.Join(dir, "actions.jsonl"))
	if err != nil {
		return nil, 0, err
	}
	defer af.Close()
	recs, err := dump.ReadActions(af)
	if err != nil {
		return nil, 0, err
	}
	h := dump.NewHistory(reg)
	return h, h.IngestRecords(recs), nil
}
