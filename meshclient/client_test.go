package meshclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/metrics"
	"extmesh/internal/serve"
)

// fastOpts returns options tuned for tests: tiny backoffs, no breaker.
func fastOpts(url string) Options {
	return Options{
		BaseURL:          url,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		RetryAfterCap:    10 * time.Millisecond,
		BreakerThreshold: -1,
	}
}

func newClient(t *testing.T, opts Options) *Client {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRetryOn429ThenSuccess(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"saturated"}`))
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	c := newClient(t, fastOpts(ts.URL))
	// Non-idempotent: 429s must still retry (shed before any work).
	resp, err := c.Do(context.Background(), "POST", "/x", []byte(`{}`), false)
	if err != nil {
		t.Fatalf("Do = %v, want success after 429 retries", err)
	}
	if resp.Status != 200 || calls.Load() != 3 {
		t.Fatalf("status=%d calls=%d, want 200 after 3 calls", resp.Status, calls.Load())
	}
	counts := c.Counts()
	if counts.Shed != 2 || counts.Retries != 2 || counts.Requests != 1 {
		t.Errorf("counts = %+v, want Shed=2 Retries=2 Requests=1", counts)
	}
}

func TestServerErrorIdempotencyRules(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			w.Write([]byte(`{"error":"transient"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	// Idempotent: a 500 is retried and the second attempt succeeds.
	c := newClient(t, fastOpts(ts.URL))
	if _, err := c.Do(context.Background(), "POST", "/q", []byte(`{}`), true); err != nil {
		t.Fatalf("idempotent after 500 = %v, want success", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("calls = %d, want 2", got)
	}

	// Non-idempotent: the 500 must surface immediately — the mutation
	// may have applied.
	calls.Store(0)
	c2 := newClient(t, fastOpts(ts.URL))
	_, err := c2.Do(context.Background(), "POST", "/m", []byte(`{}`), false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("non-idempotent 500 = %v, want APIError 500", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("calls = %d, want 1 (no retry of ambiguous mutation)", got)
	}
}

func TestPlain4xxNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad body"}`))
	}))
	defer ts.Close()

	c := newClient(t, fastOpts(ts.URL))
	_, err := c.Do(context.Background(), "POST", "/q", []byte(`{`), true)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != "bad body" {
		t.Fatalf("err = %v, want APIError 400 'bad body'", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is a correct answer)", calls.Load())
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	var calls atomic.Int64
	var healthy atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if healthy.Load() {
			w.Write([]byte(`{}`))
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	opts := fastOpts(ts.URL)
	opts.BreakerThreshold = 3
	opts.BreakerCooldown = 20 * time.Millisecond
	opts.MaxRetries = -1 // isolate breaker behavior from retries
	c := newClient(t, opts)

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Do(context.Background(), "GET", "/q", nil, true); err == nil {
			t.Fatal("expected failure")
		}
	}
	// While open: fast-fail without touching the server.
	before := calls.Load()
	_, err := c.Do(context.Background(), "GET", "/q", nil, true)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still reached the server")
	}
	if c.Counts().BreakerFastFails == 0 {
		t.Error("BreakerFastFails not counted")
	}

	// After cooldown (plus up to 50% jitter) the half-open probe goes
	// through and, with the server healthy again, closes the breaker.
	healthy.Store(true)
	time.Sleep(35 * time.Millisecond)
	if _, err := c.Do(context.Background(), "GET", "/q", nil, true); err != nil {
		t.Fatalf("probe after cooldown = %v, want success", err)
	}
	if _, err := c.Do(context.Background(), "GET", "/q", nil, true); err != nil {
		t.Fatalf("post-probe call = %v, want closed breaker", err)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	opts := fastOpts(ts.URL)
	opts.MaxRetries = 1000
	opts.BaseBackoff = 10 * time.Millisecond
	c := newClient(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, "GET", "/q", nil, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestTypedEndpointsAgainstRealServer drives every typed method against
// a live serve.Server and cross-checks answers with the library
// directly — the client must be a transparent view of the service.
func TestTypedEndpointsAgainstRealServer(t *testing.T) {
	s := serve.New(serve.Options{Metrics: metrics.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := newClient(t, fastOpts(ts.URL))
	ctx := context.Background()

	info, err := c.CreateMesh(ctx, "m", 16, 16, []extmesh.Coord{{X: 4, Y: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Width != 16 || info.Faults != 1 {
		t.Fatalf("create info = %+v", info)
	}
	if _, err := c.CreateMesh(ctx, "m", 8, 8, nil); err == nil {
		t.Fatal("duplicate create accepted")
	}

	// Direct-library oracle over the same mesh.
	d := s.Meshes().Get("m")
	n, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	src, dst := extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 15, Y: 15}
	rr, err := c.Route(ctx, "m", Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	wantPath, err := n.Route(src, dst, extmesh.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Hops != len(wantPath)-1 || len(rr.Path) != len(wantPath) {
		t.Errorf("Route hops=%d len=%d, want %d/%d", rr.Hops, len(rr.Path), len(wantPath)-1, len(wantPath))
	}

	safe, err := c.Safe(ctx, "m", Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	if want := n.Safe(src, dst, extmesh.Blocks); safe != want {
		t.Errorf("Safe = %v, want %v", safe, want)
	}

	exists, err := c.HasMinimalPath(ctx, "m", Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	if want := n.HasMinimalPath(src, dst); exists != want {
		t.Errorf("HasMinimalPath = %v, want %v", exists, want)
	}

	ens, err := c.Ensure(ctx, "m", Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	wantA := n.Ensure(src, dst, extmesh.Blocks, extmesh.DefaultStrategy())
	if ens.Verdict != wantA.Verdict.String() {
		t.Errorf("Ensure verdict = %q, want %q", ens.Verdict, wantA.Verdict)
	}

	ra, err := c.RouteAssured(ctx, "m", Query{Src: src, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Verdict == "" || ra.Hops < 0 {
		t.Errorf("RouteAssured = %+v", ra)
	}

	pairs := []Pair{{Src: src, Dst: dst}, {Src: dst, Dst: src}}
	batch, err := c.RouteBatch(ctx, "m", pairs, "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].Error != "" || batch[0].Hops != len(wantPath)-1 {
		t.Errorf("RouteBatch = %+v", batch)
	}

	dests := []extmesh.Coord{{X: 15, Y: 15}, {X: 4, Y: 4}, {X: 1, Y: 7}}
	hb, err := c.HasMinimalPathBatch(ctx, "m", src, dests)
	if err != nil {
		t.Fatal(err)
	}
	wantHB := n.HasMinimalPathAll(src, dests)
	if len(hb) != len(wantHB) {
		t.Fatalf("HasMinimalPathBatch len = %d, want %d", len(hb), len(wantHB))
	}
	for i := range hb {
		if hb[i] != wantHB[i] {
			t.Errorf("HasMinimalPathBatch[%d] = %v, want %v", i, hb[i], wantHB[i])
		}
	}

	eb, err := c.EnsureBatch(ctx, "m", src, dests[:2], "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eb) != 2 {
		t.Fatalf("EnsureBatch len = %d, want 2", len(eb))
	}

	fr, err := c.ApplyFaults(ctx, "m", FaultsRequest{Fail: []extmesh.Coord{{X: 9, Y: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Applied != 1 || fr.Faults != 2 {
		t.Errorf("ApplyFaults = %+v, want applied=1 faults=2", fr)
	}
	if _, err := c.ApplyFaults(ctx, "m", FaultsRequest{Fail: []extmesh.Coord{{X: 10, Y: 10}}}); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 3 || st.Version != d.Version() {
		t.Errorf("Stats = %+v, want faults=3 version=%d", st, d.Version())
	}

	ms, err := c.GetMesh(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Faults) != 3 || ms.Width != 16 {
		t.Errorf("GetMesh = %+v", ms)
	}

	blob, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UploadMesh(ctx, "copy", blob); err != nil {
		t.Fatal(err)
	}
	list, err := c.ListMeshes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("ListMeshes = %d entries, want 2", len(list))
	}

	if err := c.DeleteMesh(ctx, "copy"); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, err := c.GetMesh(ctx, "copy"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("GetMesh after delete = %v, want 404", err)
	}

	ready, err := c.Ready(ctx)
	if err != nil || !ready {
		t.Fatalf("Ready = %v %v, want true", ready, err)
	}
	if err := c.Healthy(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRetrySeedDeterminism(t *testing.T) {
	backoffs := func(seed int64) []time.Duration {
		c := newClient(t, Options{BaseURL: "http://localhost:1", RetrySeed: seed})
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, c.backoff(i, 0))
		}
		return out
	}
	a, b := backoffs(7), backoffs(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
