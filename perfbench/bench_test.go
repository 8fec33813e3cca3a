package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"extmesh"
	"extmesh/meshclient"
)

func durations(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(n-i) * time.Microsecond // unsorted on purpose
	}
	return out
}

// TestPercentileRule pins the tail rule: p99 needs at least ten samples
// beyond it, so 1000 samples qualify and 999 do not, and the summary
// carries the sample count.
func TestPercentileRule(t *testing.T) {
	s, err := summarize(durations(1000), 0.99)
	if err != nil {
		t.Fatalf("1000 samples: %v", err)
	}
	if s.N != 1000 || s.Tail != 990*time.Microsecond || s.P50 != 500*time.Microsecond {
		t.Fatalf("summary = %+v, want n=1000 p50=500us p99=990us", s)
	}
	if _, beyond := percentile(durations(1000), 0.99); beyond != 10 {
		t.Fatalf("beyond = %d, want 10", beyond)
	}
	if _, err := summarize(durations(999), 0.99); err == nil {
		t.Fatal("999 samples passed the p99 rule with only 9 beyond")
	}
	if _, err := summarize(durations(100), 0.9); err != nil {
		t.Fatalf("100 samples at p90 (10 beyond): %v", err)
	}
	if _, err := summarize(nil, 0.5); err == nil {
		t.Fatal("empty sample summarized")
	}
}

// TestIntervalTail checks the per-interval tail: each interval's own
// p99 under the rule, then the median across intervals, and the
// fallback when too few intervals hold enough samples.
func TestIntervalTail(t *testing.T) {
	var lat []time.Duration
	var at []int64
	start := time.Unix(0, 0)
	for k, scale := range []time.Duration{1, 5, 2} { // three one-second intervals
		for i := 1; i <= 1000; i++ {
			lat = append(lat, time.Duration(i)*scale*time.Microsecond)
			at = append(at, start.Add(time.Duration(k)*sampleEvery+time.Duration(i)*time.Microsecond).UnixNano())
		}
	}
	tail, used, total, ok := intervalTail(lat, at, 0.99)
	if !ok || used != 3 || total != 3 || tail != 2*990*time.Microsecond {
		t.Fatalf("intervalTail = %v over %d of %d (ok %v), want the middle interval's p99 1980us over 3 of 3", tail, used, total, ok)
	}
	if _, _, _, ok := intervalTail(lat[:999], at[:999], 0.99); ok {
		t.Fatal("an interval with 9 samples beyond its p99 qualified")
	}
}

// TestOpenLoopDueTime pins open-loop accounting: writes are due on a
// fixed schedule, latency counts from the due time, and a stall charges
// the writes queued behind it as well as its own.
func TestOpenLoopDueTime(t *testing.T) {
	o := openLoop{interval: 20 * time.Millisecond}
	start := time.Unix(1000, 0)
	if got := o.due(start, 3); !got.Equal(start.Add(60 * time.Millisecond)) {
		t.Fatalf("due(3) = %v, want start+60ms", got.Sub(start))
	}
	// Write 0 is sent on time but stalls for 50ms.
	lat, lag := writeTiming(o.due(start, 0), start, start.Add(50*time.Millisecond))
	if lat != 50*time.Millisecond || lag != 0 {
		t.Fatalf("write 0: latency %v lag %v, want 50ms 0", lat, lag)
	}
	// Write 1 was due at 20ms but could only go out at 50ms; it takes
	// 2ms itself, yet is charged the 30ms it waited.
	lat, lag = writeTiming(o.due(start, 1), start.Add(50*time.Millisecond), start.Add(52*time.Millisecond))
	if lat != 32*time.Millisecond || lag != 30*time.Millisecond {
		t.Fatalf("write 1: latency %v lag %v, want 32ms 30ms", lat, lag)
	}
}

// inputs captures everything a workload generates from its seed.
func inputs(t *testing.T, name string, seed int64) any {
	t.Helper()
	cfg := config{Workload: name, Seed: seed, Clients: 2}
	w, err := newWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	switch w := w.(type) {
	case *routeBatchWL:
		return []any{w.faults, w.batches}
	case *queryMixWL:
		return []any{w.faults, w.queries}
	case *churnWL:
		events := make([]faultEvent, 500)
		for i := range events {
			events[i] = w.plan.next()
		}
		return []any{w.faults, w.pairs, w.probes, events}
	case *sweepWL:
		seeds := make([]int64, 50)
		for i := range seeds {
			seeds[i] = w.seeds.Int63()
		}
		return []any{w.base, seeds}
	}
	t.Fatalf("no inputs for %T", w)
	return nil
}

// TestGeneratorsDeterministic checks that every workload generates the
// same requests for the same seed, and different ones for another.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := inputs(t, name, 7), inputs(t, name, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed, different inputs")
			}
			if reflect.DeepEqual(a, inputs(t, name, 8)) {
				t.Fatal("different seeds, same inputs")
			}
		})
	}
}

// TestWritePlanBounds checks the churn writer's transient events keep
// the fault count within [k, k+maxExtra] and never touch excluded
// nodes, and that applyEvent tracks the resulting fault set.
func TestWritePlanBounds(t *testing.T) {
	initial, err := randomFaults(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	keep := extmesh.Coord{X: 5, Y: 5}
	p := newWritePlan(3, initial, map[extmesh.Coord]bool{keep: true}, 10)
	faults := initial
	for i := 0; i < 2000; i++ {
		ev := p.next()
		if ev.Node == keep {
			t.Fatal("plan touched an excluded node")
		}
		faults = applyEvent(faults, ev)
		if len(faults) < 100 || len(faults) > 110 {
			t.Fatalf("event %d: %d faults, want 100..110", i, len(faults))
		}
		if len(faults) != len(p.faulty) {
			t.Fatalf("event %d: applyEvent has %d faults, plan %d", i, len(faults), len(p.faulty))
		}
	}
}

// TestFailureClassification checks outcomes as the real clients report
// them: 422 is an answer; 429, 5xx, write refusals and timeouts are
// failures.
func TestFailureClassification(t *testing.T) {
	status := map[string]int{
		"/v1/mesh/m/route":            http.StatusUnprocessableEntity,
		"/v1/mesh/m/safe":             http.StatusTooManyRequests,
		"/v1/mesh/m/ensure":           http.StatusInternalServerError,
		"/v1/mesh/m/has-minimal-path": http.StatusServiceUnavailable,
		"/v1/mesh/m/faults":           http.StatusForbidden,
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(200 * time.Millisecond)
		}
		w.WriteHeader(status[r.URL.Path])
		w.Write([]byte(`{"error":"stub","code":"read_only"}`))
	}))
	defer stub.Close()
	c, err := meshclient.New(meshclient.Options{BaseURL: stub.URL, MaxRetries: -1, BreakerThreshold: -1, AttemptTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := meshclient.Query{}

	_, err = c.Route(ctx, "m", q)
	if err == nil || isFailure(err) {
		t.Fatalf("422: err %v, failure %v; want an answer", err, isFailure(err))
	}
	if _, err := c.Safe(ctx, "m", q); !isFailure(err) {
		t.Fatalf("429 not a failure: %v", err)
	}
	if _, err := c.Ensure(ctx, "m", q); !isFailure(err) {
		t.Fatalf("500 not a failure: %v", err)
	}
	if _, err := c.HasMinimalPath(ctx, "m", q); !isFailure(err) {
		t.Fatalf("503 not a failure: %v", err)
	}
	if _, err := c.ApplyFaults(ctx, "m", meshclient.FaultsRequest{}); !isFailure(err) {
		t.Fatalf("write refusal not a failure: %v", err)
	}
	_, err = c.Do(ctx, http.MethodGet, "/slow", nil, true)
	if !isFailure(err) || !isTimeout(err) {
		t.Fatalf("timeout: err %v, failure %v, timeout %v", err, isFailure(err), isTimeout(err))
	}
	if isFailure(nil) {
		t.Fatal("nil error is a failure")
	}
	if !isFailure(errors.New("connection reset")) {
		t.Fatal("transport error not a failure")
	}
}
