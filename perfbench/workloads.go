package main

import (
	"bytes"
	"fmt"
	"strings"

	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/model"
	"wiclean/internal/obs"
)

// The worlds the workloads run on. The soccer world is small in seed
// count, but its transfer scenarios make deep patterns, so Algorithm 1's
// joins take 99% of a pass. The politicians world has 52x its actions and
// shallow patterns, so parsing, detection and the periodicity scan
// dominate instead.
var (
	soccerWorld      = worldSpec{domain: "soccer", seeds: 40, years: 1, worldSeed: 1}
	politiciansWorld = worldSpec{domain: "us-politicians", seeds: 2000, years: 2, worldSeed: 1}
)

// Pinned outputs. The digests cover the model file without its provenance
// (soccer) and the sorted report and periodic lines without the relabelling
// prefix (politicians), so they hold for every --seed. The soccer model is
// checked both as mined through coord (mine-soccer-cluster) and as mined
// in-process (suggest-zipf's preparation), so the two must agree.
var (
	soccerPins = pins{patterns: 13, partials: 26,
		digest: "6d5b8bea144d043e3ad2f300525c4fbbdadbe11e6eca34cd338e582a20f40368"}
	politiciansPins = pins{patterns: 11, partials: 1215, periodic: 11,
		digest: "b4d5f65b4b60a83c9b2517a58da91fefe461eb49821b9df241596f8d4166aff0"}
)

// workload is one benchmark input and what a run does with it; why each
// was chosen is in BENCHMARK.json and README.md.
type workload struct {
	name  string
	setup func(seed int64) (env, error) // timed: reported as setup_s
}

// env is a workload after set-up.
type env interface {
	// prepare finishes set-up with the benchmark's own work, untimed.
	prepare(seed int64) error
	// pass runs one measured iteration, recording its sequential calls in
	// l; traced passes install the seams.
	pass(l *ledger, traced bool) (passResult, error)
}

// passResult is one iteration's outcome. check and layers run after the
// iteration's clock has stopped.
type passResult struct {
	work      float64   // units of input processed (batch workloads: revisions)
	rate      float64   // operations per second, when the pass measures its own
	opLat     []float64 // operation latencies, ms; nil: the pass is the operation
	span      *cost     // the part of the pass wall_s and cpu_s cover; nil: all of it
	attempted int
	failed    int
	check     func() error
	layers    func(l *ledger) map[string]float64
}

var workloads = []workload{
	{
		name: "mine-soccer-cluster",
		setup: func(seed int64) (env, error) {
			in, err := buildInput(soccerWorld, seed)
			if err != nil {
				return nil, err
			}
			e := &mineEnv{in: in, cluster: &cluster{}}
			// The worker's boot: its own copy of the history and the
			// provenance it will accept.
			h, err := ingest(in)
			if err != nil {
				return nil, err
			}
			e.cluster.store = h
			e.cluster.prov, err = model.Fingerprint(in.reg, in.span, windowsConfig())
			return e, err
		},
	},
	{
		name: "audit-politics",
		setup: func(seed int64) (env, error) {
			in, err := buildInput(politiciansWorld, seed)
			if err != nil {
				return nil, err
			}
			h, err := ingest(in)
			if err != nil {
				return nil, err
			}
			cfg := windowsConfig()
			o, err := core.New(h, cfg).Mine(in.seeds, in.seedType, in.span)
			if err != nil {
				return nil, err
			}
			prov, err := model.Fingerprint(in.reg, in.span, cfg)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = model.Write(&buf, model.Snapshot(o, in.reg, prov))
			return &auditEnv{in: in, saved: buf.Bytes()}, err
		},
	},
	{
		name: "suggest-zipf",
		setup: func(seed int64) (env, error) {
			return setupSuggest(soccerWorld, seed)
		},
	},
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mineEnv runs mine-soccer-cluster.
type mineEnv struct {
	in      *input
	cluster *cluster
}

func (e *mineEnv) prepare(int64) error { return nil }

func (e *mineEnv) pass(l *ledger, traced bool) (passResult, error) {
	p := newProbe(traced)
	out, err := minePass(e.in, e.cluster, l, p)
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		work:      float64(e.in.revs),
		attempted: 1,
		check:     func() error { return checkMine(out, soccerPins) },
		layers: func(l *ledger) map[string]float64 {
			m := rowLayers(l, p)
			o := out.outcome
			m["dump.revisions"] = float64(e.in.revs)
			m["dump.actions"] = float64(out.hist.ActionCount())
			m["windows.steps"] = float64(o.RefinementSteps + 1)
			m["windows.jobs"] = float64(len(o.WindowDurations))
			m["mining.candidates"] = float64(o.Stats.Candidates)
			m["mining.frequent"] = float64(o.Stats.FrequentFound)
			m["mining.admit_ratio"] = ratio(float64(o.Stats.FrequentFound), float64(o.Stats.Candidates))
			j := o.Stats.Join
			m["relational.joins"] = float64(j.Joins + j.OuterJoins)
			m["relational.comparisons"] = float64(j.Comparisons)
			m["relational.rows_out"] = float64(j.RowsOut)
			m["relational.nested_loop_share"] = ratio(float64(j.PlannedNested), float64(j.PlannedHash+j.PlannedSortMerge+j.PlannedNested))
			m["detect.tasks"] = float64(len(out.reports))
			m["detect.partials"] = float64(out.partials)
			m["model.bytes"] = float64(len(out.saved))
			return m
		},
	}, nil
}

// auditEnv runs audit-politics.
type auditEnv struct {
	in    *input
	saved []byte // the model file mined in set-up
}

func (e *auditEnv) prepare(int64) error { return nil }

func (e *auditEnv) pass(l *ledger, traced bool) (passResult, error) {
	p := newProbe(traced)
	out, err := auditPass(e.in, e.saved, l, p)
	if err != nil {
		return passResult{}, err
	}
	return passResult{
		work:      float64(e.in.revs),
		attempted: 1,
		check:     func() error { return checkAudit(e.in, out, politiciansPins) },
		layers: func(l *ledger) map[string]float64 {
			m := rowLayers(l, p)
			m["dump.revisions"] = float64(e.in.revs)
			m["dump.actions"] = float64(out.hist.ActionCount())
			m["detect.tasks"] = float64(len(out.reports))
			m["detect.partials"] = float64(detect.TotalPartials(out.reports))
			m["periodic.patterns"] = float64(len(out.periodic))
			m["model.bytes"] = float64(len(e.saved))
			return m
		},
	}, nil
}

func (e *suggestEnv) pass(l *ledger, traced bool) (passResult, error) {
	p := newProbe(traced)
	sp, err := e.iterate(l, p)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{rate: sp.closedRate(), span: &sp.phaseA}
	for _, ph := range sp.closed {
		res.opLat = append(res.opLat, ph.lat...)
	}
	for _, ph := range sp.phases() {
		res.attempted += ph.sent
		res.failed += ph.failed
	}
	res.check = sp.check
	res.layers = func(l *ledger) map[string]float64 {
		m := rowLayers(l, p)
		snap := p.reg.Snapshot()
		hits := float64(snap.Counters[obs.SuggestCacheHits])
		misses := float64(snap.Counters[obs.SuggestCacheMisses])
		m["plugin.build_s"] = l.sum("plugin.build").wall.Seconds() / float64(len(sp.closed)+1)
		m["plugin.cache_hit_rate"] = ratio(hits, hits+misses)
		m["plugin.coalesced"] = float64(snap.Counters[obs.SuggestCoalesced])
		m["plugin.non_200"] = float64(sp.non200.Load())
		m["plugin.p50_ms"], _ = percentile(sp.serverMs, 0.5)
		m["plugin.p99_ms"], _ = percentile(sp.serverMs, 0.99)
		m["gen.lag_p99_ms"], _ = percentile(sp.open.lag, 0.99)
		m["gen.open.p50_ms"], _ = percentile(sp.open.lat, 0.5)
		m["gen.open.p99_ms"], _ = percentile(sp.open.lat, 0.99)
		m["gen.closed.p99_ms"], _ = percentile(res.opLat, 0.99)
		for _, ph := range sp.phases() {
			m["gen."+ph.mode+".sent"] += float64(ph.sent)
			m["gen."+ph.mode+".ok"] += float64(ph.ok)
			m["gen."+ph.mode+".failed"] += float64(ph.failed)
		}
		return m
	}
	return res, nil
}

// rowLayers fills the per-layer figures that come from the ledger rows and
// from the seams, common to every workload.
func rowLayers(l *ledger, p *probe) map[string]float64 {
	m := map[string]float64{}
	dumpRow, win, det := l.sum("dump"), l.sum("windows"), l.sum("detect")
	m["dump.ingest_s"] = dumpRow.wall.Seconds()
	m["dump.alloc_mb"] = float64(dumpRow.allocB) / mb
	m["windows.run_s"] = win.wall.Seconds()
	m["mining.alloc_mb"] = float64(win.allocB) / mb
	m["mining.allocs"] = float64(win.allocN)
	m["mining.gc_cycles"] = float64(win.gcCycles)
	m["mining.gc_pause_ms"] = win.gcPause * 1000
	m["detect.s"] = det.wall.Seconds()
	m["detect.alloc_mb"] = float64(det.allocB) / mb
	m["periodic.s"] = l.sum("periodic").wall.Seconds()
	m["model.save_s"] = l.sum("model.save").wall.Seconds()
	m["model.load_s"] = l.sum("model.load").wall.Seconds()

	snap := p.reg.Snapshot()
	m["windows.merge_s"] = snap.Histograms[obs.WindowsMergeSeconds].Sum
	m["mining.window_busy_s"] = snap.Histograms[obs.WindowsMineSeconds].Sum
	m["relational.arena_reuse_ratio"] = ratio(float64(snap.Counters[obs.RelationalArenaReuses]), float64(snap.Counters[obs.RelationalArenaColumns]))
	m["detect.rows_scanned"] = float64(snap.Counters[obs.DetectRowsScanned])
	for _, s := range p.stores {
		m["store.fetches"] += float64(s.fetches.calls.Load())
		m["store.fetch_busy_s"] += s.fetches.seconds()
		m["store.actions_returned"] += float64(s.actions.Load())
	}
	if t := p.transport; t != nil {
		m["coord.dispatches"] = float64(t.dispatch.calls.Load())
		m["coord.redispatches"] = float64(snap.Counters[obs.CoordWindowsRedispatched])
		m["coord.dispatch_busy_s"] = t.dispatch.seconds()
		m["coord.worker_busy_s"] = p.worker.seconds()
		m["coord.wire_overhead_s"] = t.dispatch.seconds() - p.worker.seconds()
		m["coord.req_bytes"] = float64(t.reqBytes.Load())
		m["coord.resp_bytes"] = float64(t.respBytes.Load())
	}
	return m
}
