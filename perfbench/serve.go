package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/plugin"
	"wiclean/internal/windows"
)

// Serving parameters of suggest-zipf.
const (
	zipfS          = 1.1      // Zipf exponent of the body mix
	phaseRequests  = 6000     // bodies sent per phase
	closedClients  = 2        // closed-loop clients (phase A)
	closedRepeats  = 5        // phase A runs per iteration, each on a fresh server; one lasts ~0.4s, too short to time steadily
	openRate       = 3000.0   // open-loop offered load, requests/s (phase B, traced passes only)
	openInFlight   = 64       // open-loop outstanding-request cap
	cacheBytes     = 16 << 20 // wiclean-server's default -suggest-cache
	identitySample = 64       // bodies checked against a cache-off server
)

// suggestEnv is suggest-zipf after set-up: the mined soccer model ready to
// serve, the request bodies, the run's Zipf mix over them and the
// cache-off answers for the identity sample.
type suggestEnv struct {
	in      *input
	hist    *dump.History
	outcome *windows.Outcome
	prov    model.Provenance
	bodies  []string
	edits   []action.Action // edits[i] is the edit bodies[i] asks about
	mix     []int
	golden  map[int][]byte // cache-off response per sampled body
}

// setupSuggest is the server's time-to-ready: generate and render the
// world, ingest it, mine it and build the server (which runs detection).
func setupSuggest(spec worldSpec, seed int64) (*suggestEnv, error) {
	in, err := buildInput(spec, seed)
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
	e := &suggestEnv{in: in, hist: h, outcome: o, prov: prov}
	if _, err := e.server(nil, true); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare checks the model mined in set-up against the soccer pin, then
// builds the request bodies — one per distinct edit in the log — the run's
// mix, and the golden answers of a cache-off server. It runs after set-up
// is timed: it is the benchmark's own work.
func (e *suggestEnv) prepare(seed int64) error {
	digest, err := modelDigest(model.Snapshot(e.outcome, e.in.reg, e.prov))
	if err != nil {
		return err
	}
	if n := len(e.outcome.Discovered); n != soccerPins.patterns || digest != soccerPins.digest {
		return fmt.Errorf("the in-process model has %d patterns, digest %s; want %d, %s",
			n, digest, soccerPins.patterns, soccerPins.digest)
	}
	seen := map[string]bool{}
	for _, a := range e.in.edits {
		b, err := json.Marshal(plugin.SuggestRequest{
			Subject: e.in.reg.Name(a.Edge.Src),
			Op:      a.Op.String(),
			Label:   string(a.Edge.Label),
			Object:  e.in.reg.Name(a.Edge.Dst),
			At:      int64(a.T),
		})
		if err != nil {
			return err
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			e.bodies = append(e.bodies, string(b))
			e.edits = append(e.edits, a)
		}
	}
	e.mix = zipfMix(seed, zipfS, len(e.bodies), phaseRequests)
	fmt.Printf("%d distinct /suggest bodies; the %d-body mix holds %d of them\n", len(e.bodies), len(e.mix), distinct(e.mix))
	off, err := e.server(nil, false)
	if err != nil {
		return err
	}
	h := off.Handler()
	e.golden = map[int][]byte{}
	for _, i := range e.mix {
		if len(e.golden) == identitySample {
			break
		}
		if _, ok := e.golden[i]; ok {
			continue
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/suggest", bytes.NewReader([]byte(e.bodies[i]))))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("cache-off server answered %d to %s", rec.Code, e.bodies[i])
		}
		e.golden[i] = rec.Body.Bytes()
	}
	return nil
}

// server builds a plugin server over the mined outcome, with the default
// response cache when cached is set.
func (e *suggestEnv) server(reg *obs.Registry, cached bool) (*plugin.Server, error) {
	sys := core.New(e.hist, windowsConfig()).WithObs(reg)
	sys.UseOutcome(e.outcome)
	srv, err := plugin.NewServer(sys, workers())
	if err != nil {
		return nil, err
	}
	srv.WithFingerprint(e.prov.Hash)
	if cached {
		srv.WithCache(plugin.NewResponseCache(plugin.CacheConfig{MaxBytes: cacheBytes}, reg))
	}
	return srv, nil
}

// servePass is what one suggest-zipf iteration measured.
type servePass struct {
	closed     []phase // closedRepeats phase A runs
	open       phase
	phaseA     cost         // what phase A cost, server builds included
	mismatches atomic.Int64 // sampled bodies whose answer was not the cache-off server's
	non200     atomic.Int64 // answers other than 200
	mu         sync.Mutex   // guards serverMs
	serverMs   []float64    // server-side handler time per request (traced)
}

// iterate runs phase A (closed loop) closedRepeats times and, on a traced
// pass (p non-nil), then phase B (open loop), each on a fresh server with a
// cold cache, over the same mix. Phase B is paced by the generator, not by
// the server, and its figures are per-layer ones, so untraced passes leave
// it out and only phase A's cost is kept as the pass's measured span.
func (e *suggestEnv) iterate(l *ledger, p *probe) (*servePass, error) {
	sp := &servePass{}
	before := readUsage()
	for i := 0; i < closedRepeats; i++ {
		if err := e.runPhase(l, p, sp, "closed"); err != nil {
			return nil, err
		}
	}
	sp.phaseA = before.to(readUsage())
	if p != nil {
		if err := e.runPhase(l, p, sp, "open"); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// runPhase builds a fresh cached server and sends it the mix, closed- or
// open-loop, recording one ledger row for each.
func (e *suggestEnv) runPhase(l *ledger, p *probe, sp *servePass, mode string) error {
	var ts *httptest.Server
	err := l.time("plugin.build", func() error {
		srv, err := e.server(p.registry(), true)
		if err != nil {
			return err
		}
		var h http.Handler = srv.Handler()
		if p != nil {
			h = &timingHandler{inner: h, record: func(d time.Duration) {
				sp.mu.Lock()
				sp.serverMs = append(sp.serverMs, float64(d)/float64(time.Millisecond))
				sp.mu.Unlock()
			}}
		}
		ts = httptest.NewServer(h)
		return nil
	})
	if err != nil {
		return err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: openInFlight}
	client := &http.Client{Transport: tr}
	do := func(ctx context.Context, i int) error {
		return e.post(ctx, client, ts.URL, i, sp)
	}
	return l.time("gen."+mode, func() error {
		if mode == "closed" {
			sp.closed = append(sp.closed, closedLoop(context.Background(), closedClients, e.mix, do))
		} else {
			sp.open = openLoop(context.Background(), openRate, openInFlight, e.mix, do)
		}
		tr.CloseIdleConnections()
		ts.Close()
		return nil
	})
}

// post sends one body. Anything but a 200 fails the request; a sampled
// body must get the cache-off answer byte for byte, so a sampled body that
// fails also counts as a mismatch.
func (e *suggestEnv) post(ctx context.Context, c *http.Client, url string, i int, sp *servePass) error {
	body, err := e.ask(ctx, c, url, i, sp)
	if want, sampled := e.golden[i]; sampled && (err != nil || !bytes.Equal(body, want)) {
		sp.mismatches.Add(1)
	}
	return err
}

// ask sends body i and returns the answer of a 200.
func (e *suggestEnv) ask(ctx context.Context, c *http.Client, url string, i int, sp *servePass) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/suggest", bytes.NewReader([]byte(e.bodies[i])))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		sp.non200.Add(1)
		return nil, fmt.Errorf("answered %d", resp.StatusCode)
	}
	return body, nil
}

// check is suggest-zipf's correctness gate: every request of every phase
// got a 200, and every sampled body got the cache-off server's answer.
func (sp *servePass) check() error {
	failed := 0
	for _, ph := range sp.phases() {
		failed += ph.failed
	}
	if n := sp.non200.Load(); failed > 0 || n > 0 {
		return fmt.Errorf("%d /suggest requests failed, %d of them answered other than 200", failed, n)
	}
	if n := sp.mismatches.Load(); n > 0 {
		return fmt.Errorf("%d sampled /suggest answers differ from the cache-off server", n)
	}
	return nil
}

// assistMisses times direct Assistant.Suggest calls for the distinct edits
// of the mix — the work a cache miss does — and returns the per-call
// latencies (ms) and the index candidates examined per call.
func (e *suggestEnv) assistMisses() ([]float64, float64, error) {
	reg := obs.NewRegistry()
	sys := core.New(e.hist, windowsConfig()).WithObs(reg)
	sys.UseOutcome(e.outcome)
	a, err := sys.Assistant()
	if err != nil {
		return nil, 0, err
	}
	var misses []int
	seen := map[int]bool{}
	for _, i := range e.mix {
		if !seen[i] {
			seen[i] = true
			misses = append(misses, i)
		}
	}
	// Repeat the miss set until p99 has enough samples beyond it.
	var lat []float64
	for len(lat) < 100*(minBeyond+1) {
		for _, i := range misses {
			edit := e.edits[i]
			t0 := time.Now()
			a.Suggest(edit, edit.T)
			lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	snap := reg.Snapshot()
	perCall := ratio(float64(snap.Counters[obs.AssistIndexCandidates]), float64(snap.Counters[obs.AssistRequests]))
	return lat, perCall, nil
}

// extraLayers measures the assist layer once per traced run: direct
// Assistant.Suggest calls on the mix's miss set, outside any pass.
func (e *suggestEnv) extraLayers() (map[string]float64, error) {
	lat, perCall, err := e.assistMisses()
	if err != nil {
		return nil, err
	}
	m := map[string]float64{"assist.candidates_per_call": perCall}
	m["assist.suggest_p50_ms"], _ = percentile(lat, 0.5)
	m["assist.suggest_p99_ms"], _ = percentile(lat, 0.99)
	return m, nil
}

// closedRate is the completed requests per second over all phase A runs.
func (sp *servePass) closedRate() float64 {
	var ok, secs float64
	for _, ph := range sp.closed {
		ok += float64(ph.ok)
		secs += ph.elapsed.Seconds()
	}
	return ratio(ok, secs)
}

// phases lists the phases the iteration ran, phase A runs first.
func (sp *servePass) phases() []phase {
	ps := append([]phase(nil), sp.closed...)
	if sp.open.mode != "" {
		ps = append(ps, sp.open)
	}
	return ps
}
