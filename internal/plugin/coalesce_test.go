package plugin

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wiclean/internal/obs"
)

// waitCoalesced polls the coalesced counter until n waiters are parked
// on an in-flight computation (the counter increments before the wait).
func waitCoalesced(t *testing.T, reg *obs.Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[obs.SuggestCoalesced] < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters coalesced",
				reg.Snapshot().Counters[obs.SuggestCoalesced], n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightGroupCoalesces pins singleflight: across one leader and N
// concurrent waiters on the same key, fn runs exactly once and every
// waiter receives the identical bytes with shared = true.
func TestFlightGroupCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	g := newFlightGroup(reg)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	body := []byte(`[{"pattern":"p"}]` + "\n")
	var calls atomic.Int32

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			calls.Add(1)
			return body, nil
		})
		if err != nil || shared || !bytes.Equal(b, body) {
			t.Errorf("leader got (%q, shared=%v, err=%v)", b, shared, err)
		}
	}()
	<-leaderIn

	const waiters = 8
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
				t.Error("waiter ran fn despite an in-flight leader")
				return nil, nil
			})
			if err != nil || !shared || !bytes.Equal(b, body) {
				t.Errorf("waiter got (%q, shared=%v, err=%v)", b, shared, err)
			}
		}()
	}
	waitCoalesced(t, reg, waiters)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want once", got)
	}
	// The flight is gone: the next caller leads again.
	if _, shared, _ := g.Do(context.Background(), "k", func() ([]byte, error) {
		return body, nil
	}); shared {
		t.Fatal("completed flight still coalescing")
	}
}

// TestFlightGroupSharesErrors checks that a leader's error reaches every
// waiter — shared, not cached: the next caller retries fresh.
func TestFlightGroupSharesErrors(t *testing.T) {
	reg := obs.NewRegistry()
	g := newFlightGroup(reg)
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) { return nil, nil })
		if !shared || !errors.Is(err, boom) {
			t.Errorf("waiter got (shared=%v, err=%v), want the leader's error", shared, err)
		}
	}()
	waitCoalesced(t, reg, 1)
	close(gate)
	wg.Wait()

	// Errors are not cached: a fresh call leads and can succeed.
	b, shared, err := g.Do(context.Background(), "k", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || shared || string(b) != "ok" {
		t.Fatalf("retry after error got (%q, shared=%v, err=%v)", b, shared, err)
	}
}

// TestFlightGroupWaiterCtxCancel pins the impatient-client contract: a
// waiter whose context ends returns ctx.Err() immediately, while the
// leader still runs fn to completion (so the cache insert inside fn is
// never lost).
func TestFlightGroupWaiterCtxCancel(t *testing.T) {
	reg := obs.NewRegistry()
	g := newFlightGroup(reg)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			return []byte("late"), nil
		})
		if err != nil {
			t.Errorf("leader err = %v", err)
		}
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() ([]byte, error) { return nil, nil })
		waiterDone <- err
	}()
	waitCoalesced(t, reg, 1)
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	close(gate) // the leader was never interrupted
	wg.Wait()
}

// TestFlightGroupLeaderPanicReleasesKey pins that a panicking leader does
// not poison its key: the panic reaches the leader's caller, a parked
// waiter gets an error, and the next Do on the same key leads and returns
// its own body instead of waiting on a flight that never completes.
func TestFlightGroupLeaderPanicReleasesKey(t *testing.T) {
	reg := obs.NewRegistry()
	g := newFlightGroup(reg)
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		_, _, _ = g.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-gate
			panic("boom")
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func() ([]byte, error) { return nil, nil })
		waiterDone <- err
	}()
	waitCoalesced(t, reg, 1)
	close(gate)
	if r := <-leaderDone; r == nil {
		t.Error("leader panic was swallowed")
	}
	if err := <-waiterDone; !errors.Is(err, errLeaderPanicked) {
		t.Errorf("waiter err = %v, want errLeaderPanicked", err)
	}

	b, shared, err := g.Do(ctx, "k", func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || shared || string(b) != "fresh" {
		t.Fatalf("Do after a leader panic got (%q, shared=%v, err=%v), want its own body", b, shared, err)
	}
}
