package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"wiclean/internal/assist"
	"wiclean/internal/coord"
	"wiclean/internal/core"
	"wiclean/internal/detect"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/windows"
)

// windowsConfig is the configuration of every mining run: the paper's
// Algorithm 2 defaults, PM at one abstraction level, all cores for both
// window and join parallelism.
func windowsConfig() windows.Config {
	c := windows.Defaults()
	c.Mining = mining.PM(c.InitialTau)
	c.Mining.MaxAbstraction = 1
	c.Mining.JoinWorkers = workers()
	c.Workers = workers()
	c.JoinWorkers = workers()
	return c
}

// periodicTolerance is the tolerance the server's /periodic endpoint uses.
const periodicTolerance = 0.35

// probe holds the seams of one traced pass; nil fields are not installed.
type probe struct {
	reg       *obs.Registry
	stores    []*countingStore
	transport *timingTransport
	worker    *timingHandler
}

// newProbe returns the seams for a pass: all of them when traced, none
// otherwise. A nil *probe is valid and observes nothing.
func newProbe(traced bool) *probe {
	if !traced {
		return nil
	}
	return &probe{reg: obs.NewRegistry()}
}

func (p *probe) registry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// wrap routes a store through the counting seam when tracing.
func (p *probe) wrap(s mining.Store) mining.Store {
	if p == nil {
		return s
	}
	cs := &countingStore{inner: s}
	p.stores = append(p.stores, cs)
	return cs
}

// ingest parses a JSON Lines revision dump into a fresh history: the
// wikitext parse-and-diff preprocessing of the paper.
func ingest(in *input) (*dump.History, error) {
	revs, err := dump.ReadRevisions(bytes.NewReader(in.dump))
	if err != nil {
		return nil, err
	}
	h := dump.NewHistory(in.reg)
	if err := h.IngestRevisions(revs); err != nil {
		return nil, err
	}
	return h, nil
}

// cluster is the mine-soccer-cluster topology: one worker process image,
// booted in set-up over its own ingested copy of the dump, reached over
// loopback HTTP through a coord.Pool with two dispatch slots.
type cluster struct {
	store mining.Store
	prov  model.Provenance
}

// start serves a worker for one pass and returns the pool dispatching to
// it, plus a stop function that shuts both down.
func (c *cluster) start(cfg windows.Config, p *probe) (*coord.Pool, func(), error) {
	var h http.Handler = coord.NewWorker(p.wrap(c.store), c.prov, cfg.Mining, p.registry())
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	client := &http.Client{Transport: tr}
	if p != nil {
		p.worker = &timingHandler{inner: h}
		h = p.worker
		p.transport = &timingTransport{inner: tr}
		client.Transport = p.transport
	}
	srv := httptest.NewServer(h)
	pool, err := coord.New([]string{srv.URL}, coord.Options{
		Client:     client,
		Provenance: c.prov,
		PerWorker:  2,
		Obs:        p.registry(),
	})
	stop := func() {
		tr.CloseIdleConnections()
		srv.Close()
	}
	if err != nil {
		stop()
		return nil, nil, err
	}
	return pool, stop, nil
}

// mineOut is what one mine pass produced, for the correctness gate and the
// per-layer record.
type mineOut struct {
	outcome  *windows.Outcome
	reports  []*detect.Report
	hist     *dump.History
	saved    []byte      // the model file as written
	loaded   *model.File // the model file read back
	partials int
}

// minePass runs the cold pipeline once: ingest the revision dump, run
// Algorithm 2 through the cluster, detect errors, then save and reload the
// model.
func minePass(in *input, c *cluster, l *ledger, p *probe) (*mineOut, error) {
	cfg := windowsConfig()
	out := &mineOut{}
	err := l.time("dump", func() (err error) {
		out.hist, err = ingest(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	pool, stop, err := c.start(cfg, p)
	if err != nil {
		return nil, err
	}
	defer stop()
	sys := core.New(p.wrap(out.hist), cfg).WithObs(p.registry()).WithMiner(pool)
	err = l.time("windows", func() (err error) {
		out.outcome, err = sys.Mine(in.seeds, in.seedType, in.span)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = l.time("detect", func() (err error) {
		out.reports, err = sys.DetectErrors(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.partials = detect.TotalPartials(out.reports)
	err = l.time("model.save", func() error {
		prov, err := model.Fingerprint(in.reg, in.span, cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := model.Write(&buf, model.Snapshot(out.outcome, in.reg, prov)); err != nil {
			return err
		}
		out.saved = buf.Bytes()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = l.time("model.load", func() (err error) {
		out.loaded, err = loadModel(in, cfg, out.saved)
		return err
	})
	return out, err
}

// loadModel is the warm-start load: read and validate the file, then
// verify its provenance against the current inputs.
func loadModel(in *input, cfg windows.Config, data []byte) (*model.File, error) {
	f, err := model.Read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	prov, err := model.Fingerprint(in.reg, in.span, cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(prov); err != nil {
		return nil, err
	}
	return f, nil
}

// modelDigest is the SHA-256 of a model file with its provenance cleared.
// The provenance fingerprints the entity names, which the run seed
// relabels; everything else in the file must not depend on the seed.
func modelDigest(f *model.File) (string, error) {
	g := *f
	g.Provenance = model.Provenance{}
	var buf bytes.Buffer
	if err := model.Write(&buf, &g); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkMine is the mine workloads' correctness gate: the model read back
// must re-encode to the bytes written, and the pattern count, partial
// count and model digest must equal the pinned values.
func checkMine(out *mineOut, want pins) error {
	var buf bytes.Buffer
	if err := model.Write(&buf, out.loaded); err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), out.saved) {
		return fmt.Errorf("model does not round-trip: %d bytes written, %d re-encoded after load", len(out.saved), buf.Len())
	}
	digest, err := modelDigest(out.loaded)
	if err != nil {
		return err
	}
	got := pins{patterns: len(out.outcome.Discovered), partials: out.partials, digest: digest}
	return want.check(got)
}

// pins are the outputs a workload must reproduce exactly.
type pins struct {
	patterns int
	partials int
	periodic int
	digest   string
}

func (want pins) check(got pins) error {
	if got != want {
		return fmt.Errorf("outputs changed: got %d patterns, %d partials, %d periodic, digest %s; want %d, %d, %d, %s",
			got.patterns, got.partials, got.periodic, got.digest,
			want.patterns, want.partials, want.periodic, want.digest)
	}
	return nil
}

// auditOut is what one audit pass produced.
type auditOut struct {
	hist     *dump.History
	file     *model.File
	reports  []*detect.Report
	periodic []assist.PeriodicPattern
}

// auditPass is the warm-start `wiclean detect -model` path: parse the
// revision dump, load and verify the model mined in set-up, then run
// Algorithm 3 over every discovered pattern and the periodicity scan.
func auditPass(in *input, saved []byte, l *ledger, p *probe) (*auditOut, error) {
	cfg := windowsConfig()
	out := &auditOut{}
	err := l.time("dump", func() (err error) {
		out.hist, err = ingest(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	sys := core.New(p.wrap(out.hist), cfg).WithObs(p.registry())
	err = l.time("model.load", func() (err error) {
		out.file, err = loadModel(in, cfg, saved)
		if err == nil {
			sys.UseOutcome(out.file.Outcome())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = l.time("detect", func() (err error) {
		out.reports, err = sys.DetectErrors(0)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = l.time("periodic", func() (err error) {
		out.periodic, err = sys.PeriodicPatterns(periodicTolerance)
		return err
	})
	return out, err
}

// checkAudit is the audit workload's gate: the partial and periodic counts
// and a digest over every report and periodic pattern must equal the
// pinned values. Entity names are written without the run's relabelling
// prefix and lines are sorted, so the digest is the same for every seed.
func checkAudit(in *input, out *auditOut, want pins) error {
	var lines []string
	for _, rep := range out.reports {
		head := fmt.Sprintf("report %s %v full=%d", rep.Pattern.Canonical(), rep.Window, rep.FullCount)
		lines = append(lines, head)
		for _, pe := range rep.Partials {
			var ss []string
			for _, sg := range pe.Suggestions {
				ss = append(ss, sg.Format(in.reg))
			}
			sort.Strings(ss)
			lines = append(lines, fmt.Sprintf("%s partial %s present=%v missing=%v suggest=%s",
				head, in.reg.Name(pe.Subject()), pe.Present, pe.Missing, strings.Join(ss, ";")))
		}
	}
	for _, pp := range out.periodic {
		lines = append(lines, "periodic "+pp.String())
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, s := range lines {
		h.Write([]byte(strings.ReplaceAll(s, in.prefix, "")))
		h.Write([]byte{'\n'})
	}
	got := pins{
		patterns: len(out.file.Patterns),
		partials: detect.TotalPartials(out.reports),
		periodic: len(out.periodic),
		digest:   hex.EncodeToString(h.Sum(nil)),
	}
	return want.check(got)
}
