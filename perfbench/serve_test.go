package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestSuggestGate runs both phases against stub servers and checks that
// suggest-zipf's gate fails on every kind of bad answer: an error on a
// body the identity sample does not cover, an error on one it covers, and
// a 200 with the wrong bytes.
func TestSuggestGate(t *testing.T) {
	e := &suggestEnv{
		bodies: []string{`{"n":0}`, `{"n":1}`},
		golden: map[int][]byte{0: []byte("zero")},
	}
	answer := func(body string) string { return map[string]string{`{"n":0}`: "zero", `{"n":1}`: "one"}[body] }
	cases := []struct {
		name       string
		handler    func(w http.ResponseWriter, body string)
		wantErr    string
		mismatches int64
	}{
		{"all good", func(w http.ResponseWriter, b string) { io.WriteString(w, answer(b)) }, "", 0},
		{"500 on every request", func(w http.ResponseWriter, b string) { http.Error(w, "boom", 500) }, "answered other than 200", 3},
		{"500 on unsampled misses", func(w http.ResponseWriter, b string) {
			if b == `{"n":1}` {
				http.Error(w, "boom", 500)
				return
			}
			io.WriteString(w, answer(b))
		}, "answered other than 200", 0},
		{"wrong bytes on a sampled body", func(w http.ResponseWriter, b string) { io.WriteString(w, strings.ToUpper(answer(b))) }, "differ from the cache-off server", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				b, _ := io.ReadAll(r.Body)
				tc.handler(w, string(b))
			}))
			defer ts.Close()
			sp := &servePass{}
			do := func(ctx context.Context, i int) error { return e.post(ctx, ts.Client(), ts.URL, i, sp) }
			sp.closed = append(sp.closed, closedLoop(context.Background(), 2, []int{0, 1, 0, 1}, do))
			sp.open = openLoop(context.Background(), 1000, 2, []int{1, 0}, do)
			err := sp.check()
			if tc.wantErr == "" && err != nil {
				t.Fatalf("gate failed on good answers: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("gate = %v, want an error containing %q", err, tc.wantErr)
			}
			if got := sp.mismatches.Load(); got != tc.mismatches {
				t.Errorf("mismatches = %d, want %d", got, tc.mismatches)
			}
		})
	}
}

// TestFailedRequestsMarshal checks that a traced figure taken over failed
// requests, which is +Inf, still gives a result line JSON can encode.
func TestFailedRequestsMarshal(t *testing.T) {
	p99, _ := percentile([]float64{1, math.Inf(1)}, 0.99)
	if _, err := json.Marshal(value{finite(p99), "ms"}); err != nil {
		t.Fatalf("+Inf percentile does not marshal: %v", err)
	}
	if finite(2.5) != 2.5 {
		t.Errorf("finite changed a finite value")
	}
}
