package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/source"
	"wiclean/internal/windows"
)

// ErrNoWorkers reports that the pool has no healthy worker left: every
// worker was quarantined after rejecting the coordinator's provenance.
// The wrapped cause carries the first *model.StaleError observed, so
// errors.As recovers both fingerprints.
var ErrNoWorkers = errors.New("coord: no healthy workers remain")

// DispatchError reports that one window job could not be completed on any
// worker within the retry policy. Unwrap exposes the last underlying
// failure; when the attempt allowance or the retry budget ran out on
// transient faults, that failure also matches source.ErrExhausted.
type DispatchError struct {
	Stage    Stage
	Window   action.Window
	Index    int
	Attempts int
	Err      error
}

// Error renders the failed dispatch.
func (e *DispatchError) Error() string {
	return fmt.Sprintf("coord: %s job for window %v (index %d) failed after %d dispatch attempts: %v",
		e.Stage, e.Window, e.Index, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *DispatchError) Unwrap() error { return e.Err }

// Options configures a Pool. The zero value works for tests against
// httptest servers; production callers set Provenance and usually a
// RequestTimeout.
type Options struct {
	// Client issues the HTTP requests; nil uses http.DefaultClient.
	Client *http.Client

	// Provenance is the coordinator's fingerprint of (universe, span,
	// semantic configuration), sent with every request; workers reject a
	// mismatch with 409. Compute it with model.Fingerprint over the same
	// windows.Config the run uses.
	Provenance model.Provenance

	// PerWorker is how many window jobs may be in flight on one worker at
	// once (<=0 = 2). The pool's total dispatch concurrency is
	// PerWorker·len(workers) — pass Slots() as windows.Config.Workers so
	// the walk keeps every slot busy.
	PerWorker int

	// Retry paces re-dispatches after transient worker failures: capped
	// exponential backoff with deterministic jitter keyed by the job, and
	// an optional pool-wide retry budget (source.ErrExhausted once
	// spent). Zero-valued fields fall back to source.DefaultRetryPolicy.
	Retry source.RetryPolicy

	// RequestTimeout bounds each dispatch attempt (<=0 = no per-attempt
	// deadline beyond the context's). A hung worker costs one attempt,
	// not the job.
	RequestTimeout time.Duration

	// Faults injects deterministic dispatch faults before the request
	// leaves the coordinator — the (Seed, job-key, attempt) fault model
	// of source.Faults applied to dispatches instead of fetches. The
	// zero value injects nothing. Injected faults are transient: retries
	// must mask them byte-identically, which is what
	// TestPoolFaultInjectionIdentity asserts.
	Faults source.Faults

	// Obs receives the coordinator metrics (dispatched/redispatched/
	// merged counters, per-worker latency histograms); nil is a no-op.
	Obs *obs.Registry
}

// workerState is one worker endpoint plus its quarantine flag.
type workerState struct {
	name  string // as given, for labels and errors
	url   string // POST /mine endpoint
	stale atomic.Bool
}

// Pool dispatches window jobs to a fixed set of workers. It implements
// windows.WindowMiner: hand it to windows.Config.Miner and the refinement
// walk runs unchanged, with every per-window job traveling over HTTP.
// Methods are safe for concurrent use.
type Pool struct {
	opts    Options
	client  *http.Client
	workers []*workerState

	slots    chan int     // worker indices, PerWorker copies each
	healthy  atomic.Int64 // workers not yet quarantined
	allStale chan struct{}
	staleMu  sync.Mutex
	staleErr error // first provenance rejection, for ErrNoWorkers

	budget atomic.Int64 // retries consumed from Retry.Budget
}

// New builds a pool over the given worker addresses. An address may be a
// bare host:port (http:// is assumed) or a full http(s) URL; the /mine
// path is appended. At least one worker is required.
func New(workerAddrs []string, opts Options) (*Pool, error) {
	if len(workerAddrs) == 0 {
		return nil, fmt.Errorf("coord: no workers given")
	}
	if opts.PerWorker <= 0 {
		opts.PerWorker = 2
	}
	def := source.DefaultRetryPolicy()
	if opts.Retry.MaxAttempts <= 0 {
		opts.Retry.MaxAttempts = def.MaxAttempts
	}
	if opts.Retry.BaseDelay <= 0 {
		opts.Retry.BaseDelay = def.BaseDelay
	}
	if opts.Retry.MaxDelay <= 0 {
		opts.Retry.MaxDelay = def.MaxDelay
	}
	p := &Pool{
		opts:     opts,
		client:   opts.Client,
		allStale: make(chan struct{}),
	}
	if p.client == nil {
		p.client = http.DefaultClient
	}
	for _, addr := range workerAddrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("coord: empty worker address")
		}
		u := addr
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		p.workers = append(p.workers, &workerState{
			name: addr,
			url:  strings.TrimRight(u, "/") + "/mine",
		})
	}
	p.healthy.Store(int64(len(p.workers)))
	p.slots = make(chan int, len(p.workers)*opts.PerWorker)
	for i := range p.workers {
		for k := 0; k < opts.PerWorker; k++ {
			p.slots <- i
		}
	}
	return p, nil
}

// Slots returns the pool's total dispatch concurrency — the natural value
// for windows.Config.Workers when this pool is the Miner.
func (p *Pool) Slots() int { return len(p.workers) * p.opts.PerWorker }

// MineWindow implements windows.WindowMiner by dispatching the job to a
// worker, re-routing on transient failures under the retry policy.
func (p *Pool) MineWindow(ctx context.Context, job windows.WindowJob) (*mining.Result, error) {
	resp, err := p.dispatch(ctx, StageWindow, job)
	if err != nil {
		return nil, err
	}
	return resp.result(job), nil
}

// MineRelative implements windows.WindowMiner's relative stage: the
// worker re-mines the window and expands relative patterns from the
// recovered realizations.
func (p *Pool) MineRelative(ctx context.Context, job windows.WindowJob) (map[string][]mining.RelativePattern, error) {
	resp, err := p.dispatch(ctx, StageRelative, job)
	if err != nil {
		return nil, err
	}
	return resp.relative(), nil
}

// dispatch runs the acquire → post → retry loop for one job. Provenance
// rejections quarantine the worker and re-route without consuming the
// transient-attempt allowance; transient failures back off under the
// retry policy and may land on a different worker.
func (p *Pool) dispatch(ctx context.Context, stage Stage, job windows.WindowJob) (*MineResponse, error) {
	key := fmt.Sprintf("%s|%d|%d", stage, job.Index, job.Step)
	reg := p.opts.Obs
	var last error
	attempt := 0 // transient-attempt counter, bounded by MaxAttempts
	posts := 0   // every dispatch, for metrics and fault numbering
	exhausted := false
	for attempt < p.opts.Retry.MaxAttempts {
		w, err := p.acquire(ctx)
		if err != nil {
			if errors.Is(err, ErrNoWorkers) {
				return nil, p.jobError(stage, job, posts, err)
			}
			if last == nil {
				last = err
			}
			return nil, p.jobError(stage, job, posts, last)
		}
		attempt++
		posts++
		reg.Counter(obs.CoordWindowsDispatched).Inc()
		if posts > 1 {
			reg.Counter(obs.CoordWindowsRedispatched).Inc()
		}
		resp, derr := p.post(ctx, w, stage, job, key, posts)
		if derr == nil {
			p.release(w)
			reg.Counter(obs.CoordWindowsMerged).Inc()
			return resp, nil
		}
		last = derr
		var serr *model.StaleError
		if errors.As(derr, &serr) {
			// Config drift is a property of the worker, not the job: park
			// the worker for good and re-route immediately, without
			// charging the job's transient allowance or backing off.
			p.quarantine(w, derr)
			attempt--
			continue
		}
		p.release(w)
		if cerr := ctx.Err(); cerr != nil {
			// A canceled coordinator reports the cancellation, not the
			// incidental transient fault that happened to be in flight —
			// callers (and the kill/resume path) test errors.Is(ctx.Err()).
			last = fmt.Errorf("%w: %w", cerr, derr)
			break
		}
		if source.IsPermanent(derr) {
			break
		}
		if attempt >= p.opts.Retry.MaxAttempts {
			exhausted = true
			break
		}
		if p.opts.Retry.Budget > 0 && p.budget.Add(1) > p.opts.Retry.Budget {
			exhausted = true
			break
		}
		if err := p.sleep(ctx, p.opts.Retry.Backoff(key, attempt)); err != nil {
			last = err
			break
		}
	}
	if exhausted || (attempt >= p.opts.Retry.MaxAttempts && !source.IsPermanent(last)) {
		last = fmt.Errorf("%w: %w", source.ErrExhausted, last)
	}
	return nil, p.jobError(stage, job, posts, last)
}

// jobError wraps a terminal failure in the typed DispatchError.
func (p *Pool) jobError(stage Stage, job windows.WindowJob, posts int, err error) error {
	return &DispatchError{Stage: stage, Window: job.Window, Index: job.Index, Attempts: posts, Err: err}
}

// acquire blocks until a healthy worker slot is free, the context is
// done, or no healthy worker remains.
func (p *Pool) acquire(ctx context.Context) (*workerState, error) {
	for {
		select {
		case i := <-p.slots:
			w := p.workers[i]
			if w.stale.Load() {
				// Drain a quarantined worker's parked slots instead of
				// returning them: its capacity is gone.
				continue
			}
			return w, nil
		case <-p.allStale:
			return nil, p.noWorkers()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// release returns a worker's slot to the pool.
func (p *Pool) release(w *workerState) {
	for i, ws := range p.workers {
		if ws == w {
			p.slots <- i
			return
		}
	}
}

// quarantine permanently removes a provenance-rejected worker from
// rotation. Its held slot is not returned, and any parked slots are
// discarded by acquire; when the last healthy worker goes, every blocked
// and future acquire fails with ErrNoWorkers.
func (p *Pool) quarantine(w *workerState, cause error) {
	if !w.stale.CompareAndSwap(false, true) {
		return
	}
	p.opts.Obs.Counter(obs.CoordWorkerRejects).Inc()
	p.staleMu.Lock()
	if p.staleErr == nil {
		p.staleErr = cause
	}
	p.staleMu.Unlock()
	if p.healthy.Add(-1) == 0 {
		close(p.allStale)
	}
}

// noWorkers builds the all-stale failure, carrying the first rejection.
func (p *Pool) noWorkers() error {
	p.staleMu.Lock()
	cause := p.staleErr
	p.staleMu.Unlock()
	if cause == nil {
		return ErrNoWorkers
	}
	return fmt.Errorf("%w: %w", ErrNoWorkers, cause)
}

// sleep waits out a backoff delay, honoring the policy's Sleep override.
func (p *Pool) sleep(ctx context.Context, d time.Duration) error {
	if p.opts.Retry.Sleep != nil {
		return p.opts.Retry.Sleep(ctx, d)
	}
	return source.SleepContext(ctx, d)
}

// post performs one dispatch attempt: fault-injection roll, HTTP round
// trip with traceparent propagation, and response decoding. n is the
// job's 1-based dispatch number, the attempt coordinate of the
// deterministic fault model.
func (p *Pool) post(ctx context.Context, w *workerState, stage Stage, job windows.WindowJob, key string, n int) (*MineResponse, error) {
	ctx, sp := trace.StartSpan(ctx, "coord.dispatch")
	sp.SetAttr("worker", w.name)
	sp.SetAttr("stage", string(stage))
	sp.SetAttrInt("window_index", int64(job.Index))
	sp.SetAttrInt("step", int64(job.Step))
	sp.SetAttrInt("attempt", int64(n))
	defer sp.End()

	if p.opts.Faults.Roll(key, n) {
		err := fmt.Errorf("%w: dispatch %s attempt %d", source.ErrInjected, key, n)
		p.opts.Obs.Counter(obs.SourceFaultsInjected).Inc()
		sp.Fail(err)
		return nil, err
	}

	body, err := json.Marshal(request(p.opts.Provenance, stage, job))
	if err != nil {
		err = source.Permanent(fmt.Errorf("coord: encoding %s job: %w", stage, err))
		sp.Fail(err)
		return nil, err
	}
	rctx := ctx
	if p.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(ctx, p.opts.RequestTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		err = source.Permanent(fmt.Errorf("coord: building request for %s: %w", w.name, err))
		sp.Fail(err)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	trace.Inject(rctx, req.Header)

	start := time.Now() //wiclean:allow-nondet per-worker latency metric only
	hres, err := p.client.Do(req)
	p.opts.Obs.Histogram(obs.Labeled(obs.CoordWorkerSeconds, "worker", w.name), obs.DurationBuckets).
		ObserveDurationWithExemplar(time.Since(start), sp.TraceIDString()) //wiclean:allow-nondet per-worker latency metric only
	if err != nil {
		err = fmt.Errorf("coord: posting to %s: %w", w.name, err)
		sp.Fail(err)
		return nil, err
	}
	defer hres.Body.Close()

	switch {
	case hres.StatusCode == http.StatusOK:
		var resp MineResponse
		if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
			err = fmt.Errorf("coord: decoding response from %s: %w", w.name, err)
			sp.Fail(err)
			return nil, err
		}
		return &resp, nil
	case hres.StatusCode == http.StatusConflict:
		var sb staleBody
		if err := json.NewDecoder(hres.Body).Decode(&sb); err != nil {
			err = fmt.Errorf("coord: worker %s sent malformed 409: %w", w.name, err)
			sp.Fail(err)
			return nil, err
		}
		serr := fmt.Errorf("coord: worker %s rejected provenance: %w",
			w.name, &model.StaleError{Want: sb.Want, Got: sb.Got})
		sp.Fail(serr)
		return nil, serr
	case hres.StatusCode >= 400 && hres.StatusCode < 500:
		// A well-formed coordinator never earns a 4xx; treat it as
		// permanent so a broken build fails fast instead of retrying.
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 512))
		err = source.Permanent(fmt.Errorf("coord: worker %s: %s: %s", w.name, hres.Status, bytes.TrimSpace(msg)))
		sp.Fail(err)
		return nil, err
	default:
		msg, _ := io.ReadAll(io.LimitReader(hres.Body, 512))
		err = fmt.Errorf("coord: worker %s: %s: %s", w.name, hres.Status, bytes.TrimSpace(msg))
		sp.Fail(err)
		return nil, err
	}
}
