package main

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func seq(n int) []int {
	mix := make([]int, n)
	for i := range mix {
		mix[i] = i
	}
	return mix
}

// TestOpenLoopTimesFromDueTime stalls the first request while one slot is
// in flight: the requests due behind it must be charged the stall, both as
// latency (timed from their due time, not from when they were finally
// sent) and as generator lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var first atomic.Bool
	p := openLoop(context.Background(), 1000, 1, seq(5), func(context.Context, int) error {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		return nil
	})
	if p.sent != 5 || p.ok != 5 || p.failed != 0 {
		t.Fatalf("sent/ok/failed = %d/%d/%d, want 5/5/0", p.sent, p.ok, p.failed)
	}
	// Request 1 was due 1ms after the start but could only be sent once
	// request 0 finished, ~60ms in.
	want := float64(stall/time.Millisecond) - 10
	if p.lag[1] < want {
		t.Errorf("lag of request 1 = %.1fms, want >= %.0fms", p.lag[1], want)
	}
	for i := 1; i < 5; i++ {
		if p.lat[i] < p.lag[i] {
			t.Errorf("request %d: latency %.1fms < lag %.1fms; latency must include the wait since its due time", i, p.lat[i], p.lag[i])
		}
		if p.lat[i] < want-float64(i) {
			t.Errorf("request %d: latency %.1fms does not include the stall", i, p.lat[i])
		}
	}
}

// TestOpenLoopKeepsSchedule checks that an idle server sees requests at
// the offered rate: the phase lasts about n/rate and lag stays small.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	p := openLoop(context.Background(), 500, 8, seq(50), func(context.Context, int) error { return nil })
	if p.elapsed < 95*time.Millisecond {
		t.Errorf("50 requests at 500/s took %v, want about 100ms", p.elapsed)
	}
	if lag, _ := percentile(p.lag, 0.5); lag > 20 {
		t.Errorf("median lag %.1fms on an idle server", lag)
	}
}

// TestFailuresAreInfinite checks that a failed request counts as failed
// and as +Inf latency, so it lands beyond every percentile.
func TestFailuresAreInfinite(t *testing.T) {
	boom := errors.New("refused")
	for _, mode := range []string{"closed", "open"} {
		do := func(_ context.Context, i int) error {
			if i%4 == 0 {
				return boom
			}
			return nil
		}
		var p phase
		if mode == "closed" {
			p = closedLoop(context.Background(), 2, seq(100), do)
		} else {
			p = openLoop(context.Background(), 5000, 4, seq(100), do)
		}
		if p.mode != mode || p.sent != 100 || p.ok != 75 || p.failed != 25 {
			t.Fatalf("%s: mode/sent/ok/failed = %s/%d/%d/%d, want %s/100/75/25", mode, p.mode, p.sent, p.ok, p.failed, mode)
		}
		for i := 0; i < 100; i += 4 {
			if !math.IsInf(p.lat[i], 1) {
				t.Errorf("%s: failed request %d has latency %v, want +Inf", mode, i, p.lat[i])
			}
		}
		if v, ok := percentile(p.lat, 0.8); !ok || !math.IsInf(v, 1) {
			t.Errorf("%s: p80 with 25%% failures = %v (reported %v), want +Inf", mode, v, ok)
		}
	}
}

// TestPercentileNeedsTenBeyond checks the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.99, 99, false}, // one sample beyond
		{100, 0.9, 90, true},   // ten beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false}, // nine beyond
		{1010, 0.99, 1000, true},
		{10, 0.5, 5, false},
	}
	for _, c := range cases {
		v, ok := percentile(samples(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	if v, label := tail(samples(2000)); label != "p99" || v != 1980 {
		t.Errorf("tail of 2000 samples = %v %s, want 1980 p99", v, label)
	}
	if v, label := tail(samples(5)); label != "max" || v != 5 {
		t.Errorf("tail of 5 samples = %v %s, want 5 max", v, label)
	}
}

// TestZipfMixDeterministic checks that one seed always gives the same mix,
// another seed a different one, and that the s=1.1 mix over a few hundred
// items repeats mostly hot items, as the suggest workload relies on.
func TestZipfMixDeterministic(t *testing.T) {
	a := zipfMix(7, 1.1, 600, 4000)
	b := zipfMix(7, 1.1, 600, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different mixes")
	}
	if reflect.DeepEqual(a, zipfMix(8, 1.1, 600, 4000)) {
		t.Fatal("different seeds gave the same mix")
	}
	for _, i := range a {
		if i < 0 || i >= 600 {
			t.Fatalf("item %d out of range", i)
		}
	}
	repeats := 1 - float64(distinct(a))/float64(len(a))
	if repeats < 0.8 || repeats > 0.97 {
		t.Errorf("repeat share %.3f, want the 0.8-0.97 a cache-heavy mix gives", repeats)
	}
}

// TestClosedLoopCounts checks per-phase counts and that every entry of the
// mix is sent exactly once across the clients.
func TestClosedLoopCounts(t *testing.T) {
	var hits [300]atomic.Int32
	p := closedLoop(context.Background(), 3, seq(300), func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	})
	if p.mode != "closed" || p.sent != 300 || p.ok != 300 || p.failed != 0 {
		t.Fatalf("mode/sent/ok/failed = %s/%d/%d/%d", p.mode, p.sent, p.ok, p.failed)
	}
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("entry %d sent %d times", i, n)
		}
	}
}
