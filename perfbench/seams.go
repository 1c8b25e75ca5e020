package main

import (
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/taxonomy"
)

// The seams below observe a layer from outside, through an interface the
// program already accepts. They are installed in traced passes only.

// busy accumulates a count and the wall time spent in concurrent calls.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) add(start time.Time) {
	b.calls.Add(1)
	b.ns.Add(int64(time.Since(start)))
}

func (b *busy) seconds() float64 { return time.Duration(b.ns.Load()).Seconds() }

// countingStore forwards exactly the three mining.Store methods, counting
// fetches, the time spent in them and the actions they return. The miner
// sees no optional interface through it, which matches dump.History (it
// implements none of them).
type countingStore struct {
	inner   mining.Store
	fetches busy
	actions atomic.Int64
}

func (s *countingStore) Registry() *taxonomy.Registry { return s.inner.Registry() }

func (s *countingStore) ActionsOf(ids []taxonomy.EntityID, w action.Window) []action.Action {
	defer s.fetches.add(time.Now())
	out := s.inner.ActionsOf(ids, w)
	s.actions.Add(int64(len(out)))
	return out
}

func (s *countingStore) AllActions(w action.Window) []action.Action {
	defer s.fetches.add(time.Now())
	out := s.inner.AllActions(w)
	s.actions.Add(int64(len(out)))
	return out
}

// timingTransport times every coordinator dispatch from the request until
// its response body is closed, and counts the bytes each way.
type timingTransport struct {
	inner     http.RoundTripper
	dispatch  busy
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.dispatch.add(start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

// timedBody counts response bytes and ends the dispatch's timing on Close.
type timedBody struct {
	io.ReadCloser
	t      *timingTransport
	start  time.Time
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.respBytes.Add(int64(n))
	return n, err
}

func (b *timedBody) Close() error {
	if !b.closed {
		b.closed = true
		b.t.dispatch.add(b.start)
	}
	return b.ReadCloser.Close()
}

// timingHandler times the calls into an http.Handler.
type timingHandler struct {
	inner http.Handler
	busy
	record func(time.Duration) // optional per-call observer
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.add(start)
	if h.record != nil {
		h.record(time.Since(start))
	}
}
