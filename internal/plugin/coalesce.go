package plugin

import (
	"context"
	"errors"
	"sync"

	"wiclean/internal/obs"
)

// flightGroup coalesces identical in-flight /suggest computations: the
// first caller for a key becomes the leader and runs the computation;
// every concurrent caller for the same key waits for the leader's result
// and receives the identical byte slice. A dependency-free singleflight,
// shaped for response bodies: results are never retained past the flight
// (the response cache owns retention), and errors are shared with every
// waiter but cached by nobody.
type flightGroup struct {
	obs *obs.Registry

	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one in-progress computation.
type flight struct {
	done chan struct{}
	body []byte
	err  error
}

// newFlightGroup returns an empty group reporting into reg (nil-safe).
func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{obs: reg, flights: map[string]*flight{}}
}

// errLeaderPanicked is what waiters receive when the leader's fn panicked.
var errLeaderPanicked = errors.New("plugin: coalesced computation panicked")

// Do returns the result of fn for key, running fn exactly once across
// all concurrent callers of the same key. shared reports whether this
// caller waited on another caller's computation (the coalesced case). A
// waiter whose ctx ends before the leader finishes returns ctx.Err();
// the leader itself always runs fn to completion so the shared result
// (and the cache insert inside fn) is never lost to one impatient
// client. If fn panics, the flight is still released — waiters get
// errLeaderPanicked and the next caller for key leads afresh — and the
// panic continues up the leader's stack.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		g.obs.Counter(obs.SuggestCoalesced).Inc()
		select {
		case <-f.done:
			return f.body, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			f.body, f.err = nil, errLeaderPanicked
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.body, f.err = fn()
	returned = true
	return f.body, false, f.err
}
