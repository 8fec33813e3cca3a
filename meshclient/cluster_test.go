package meshclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/journal"
	"extmesh/internal/metrics"
	"extmesh/internal/serve"
)

// fakeNode is a scripted cluster member: it answers every request with
// a fixed status, body and journal-seq header, counting calls.
type fakeNode struct {
	ts     *httptest.Server
	calls  atomic.Int64
	status atomic.Int64
	seq    atomic.Uint64
	body   atomic.Pointer[string]
}

func newFakeNode(t *testing.T, status int, seq uint64, body string) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	n.status.Store(int64(status))
	n.seq.Store(seq)
	n.body.Store(&body)
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.calls.Add(1)
		if s := n.seq.Load(); s > 0 {
			w.Header().Set("X-Journal-Seq", fmt.Sprint(s))
		}
		w.WriteHeader(int(n.status.Load()))
		w.Write([]byte(*n.body.Load()))
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func clusterOpts(primary *fakeNode, replicas ...*fakeNode) ClusterOptions {
	opts := ClusterOptions{Primary: primary.ts.URL, Node: fastOpts("")}
	opts.Node.MaxRetries = -1 // isolate cluster routing from per-node retries
	for _, r := range replicas {
		opts.Replicas = append(opts.Replicas, r.ts.URL)
	}
	return opts
}

func newCluster(t *testing.T, opts ClusterOptions) *ClusterClient {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestJournalSeqHeaderParsed(t *testing.T) {
	node := newFakeNode(t, 200, 42, `{}`)
	c := newClient(t, fastOpts(node.ts.URL))
	resp, err := c.Do(context.Background(), "GET", "/q", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.HasJournalSeq || resp.JournalSeq != 42 {
		t.Fatalf("resp seq = %v/%d, want 42", resp.HasJournalSeq, resp.JournalSeq)
	}

	// Absent header: HasJournalSeq stays false.
	node.seq.Store(0)
	resp, err = c.Do(context.Background(), "GET", "/q", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.HasJournalSeq {
		t.Fatal("HasJournalSeq = true with no header")
	}
}

func TestBreakerCountersAndJitter(t *testing.T) {
	node := newFakeNode(t, 500, 0, `{}`)
	opts := fastOpts(node.ts.URL)
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 20 * time.Millisecond
	opts.MaxRetries = -1
	c := newClient(t, opts)

	for i := 0; i < 2; i++ {
		c.Do(context.Background(), "GET", "/q", nil, true)
	}
	if !c.BreakerOpen() {
		t.Fatal("breaker not open after threshold failures")
	}
	if got := c.Counts().BreakerOpens; got != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", got)
	}

	// After cooldown (plus jitter, bounded by cooldown/2) a probe runs;
	// the node is still down, so the breaker re-opens and both counters
	// advance.
	time.Sleep(35 * time.Millisecond)
	if c.BreakerOpen() {
		t.Fatal("breaker still reporting open after cooldown+jitter elapsed")
	}
	c.Do(context.Background(), "GET", "/q", nil, true)
	counts := c.Counts()
	if counts.BreakerProbes != 1 || counts.BreakerOpens != 2 {
		t.Fatalf("counts = %+v, want Probes=1 Opens=2", counts)
	}

	// Healthy probe closes it and resets the cycle.
	node.status.Store(200)
	time.Sleep(35 * time.Millisecond)
	if _, err := c.Do(context.Background(), "GET", "/q", nil, true); err != nil {
		t.Fatalf("healthy probe = %v", err)
	}
	if c.BreakerOpen() {
		t.Fatal("breaker open after successful probe")
	}
}

func TestBreakerJitterDeterministicPerSeed(t *testing.T) {
	delays := func(seed int64) []time.Duration {
		c := newClient(t, Options{BaseURL: "http://localhost:1", RetrySeed: seed, BreakerThreshold: 1, BreakerCooldown: time.Second})
		var out []time.Duration
		for i := 0; i < 4; i++ {
			out = append(out, time.Duration(c.breaker.rng.Int63n(int64(time.Second)/2+1)))
		}
		return out
	}
	a, b := delays(11), delays(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClusterRoutesWritesToPrimaryReadsToReplicas(t *testing.T) {
	primary := newFakeNode(t, 200, 7, `{}`)
	r1 := newFakeNode(t, 200, 7, `{}`)
	r2 := newFakeNode(t, 200, 7, `{}`)
	c := newCluster(t, clusterOpts(primary, r1, r2))
	ctx := context.Background()

	if _, err := c.DoWrite(ctx, "POST", "/v1/mesh", []byte(`{}`), false); err != nil {
		t.Fatal(err)
	}
	if primary.calls.Load() != 1 || r1.calls.Load()+r2.calls.Load() != 0 {
		t.Fatal("write did not go exclusively to the primary")
	}
	if c.Watermark() != 7 {
		t.Fatalf("watermark = %d, want 7 from the write response", c.Watermark())
	}

	for i := 0; i < 4; i++ {
		if _, err := c.DoRead(ctx, "GET", "/v1/mesh", nil); err != nil {
			t.Fatal(err)
		}
	}
	if r1.calls.Load() != 2 || r2.calls.Load() != 2 {
		t.Fatalf("reads spread %d/%d, want 2/2 round-robin", r1.calls.Load(), r2.calls.Load())
	}
	if primary.calls.Load() != 1 {
		t.Fatal("reads reached the primary despite healthy replicas")
	}
	counts := c.Counts()
	if counts.Reads != 4 || counts.Writes != 1 || counts.PrimaryReads != 0 {
		t.Fatalf("counts = %+v", counts)
	}
}

func TestClusterRejectsStaleReplica(t *testing.T) {
	primary := newFakeNode(t, 200, 9, `{}`)
	stale := newFakeNode(t, 200, 3, `{}`)
	fresh := newFakeNode(t, 200, 9, `{}`)
	c := newCluster(t, clusterOpts(primary, stale, fresh))
	ctx := context.Background()

	// Establish the watermark via a write.
	if _, err := c.DoWrite(ctx, "POST", "/w", nil, false); err != nil {
		t.Fatal(err)
	}

	// Every read must land on the fresh replica, however the cursor
	// rotates; the stale one gets tried and rejected.
	for i := 0; i < 4; i++ {
		resp, err := c.DoRead(ctx, "GET", "/q", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.JournalSeq != 9 {
			t.Fatalf("accepted answer at seq %d, want 9", resp.JournalSeq)
		}
	}
	counts := c.Counts()
	if counts.StaleRejects == 0 {
		t.Fatal("stale replica answers were never rejected")
	}
	if counts.PrimaryReads != 0 {
		t.Fatal("fell back to primary despite a fresh replica")
	}

	// With slack covering the lag, the stale replica is acceptable.
	c2 := newCluster(t, clusterOpts(primary, stale, fresh))
	c2.opts.MaxStalenessRecords = 6
	if _, err := c2.DoWrite(ctx, "POST", "/w", nil, false); err != nil {
		t.Fatal(err)
	}
	staleBefore := stale.calls.Load()
	for i := 0; i < 4; i++ {
		if _, err := c2.DoRead(ctx, "GET", "/q", nil); err != nil {
			t.Fatal(err)
		}
	}
	if c2.Counts().StaleRejects != 0 {
		t.Fatal("bounded-staleness read rejected a replica within the bound")
	}
	if stale.calls.Load() == staleBefore {
		t.Fatal("lagging-but-in-bound replica never served")
	}
}

func TestClusterStale404FailsOverGenuine404Returned(t *testing.T) {
	primary := newFakeNode(t, 200, 5, `{"ok":true}`)
	lagging := newFakeNode(t, 404, 2, `{"error":"mesh not found"}`)
	c := newCluster(t, clusterOpts(primary, lagging))
	ctx := context.Background()
	if _, err := c.DoWrite(ctx, "POST", "/w", nil, false); err != nil {
		t.Fatal(err)
	}

	// The replica 404s at seq 2 — it simply hasn't replicated the
	// create yet — so the read must fall through to the primary.
	resp, err := c.DoRead(ctx, "GET", "/v1/mesh/m", nil)
	if err != nil {
		t.Fatalf("stale 404 surfaced instead of failing over: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d, want the primary's 200", resp.Status)
	}
	if c.Counts().PrimaryReads != 1 || c.Counts().StaleRejects == 0 {
		t.Fatalf("counts = %+v, want a stale reject and a primary fallback", c.Counts())
	}

	// Once the replica is caught up, its 404 is the genuine answer and
	// is returned without touching the primary.
	lagging.seq.Store(5)
	primaryBefore := primary.calls.Load()
	_, err = c.DoRead(ctx, "GET", "/v1/mesh/m", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 {
		t.Fatalf("err = %v, want genuine 404", err)
	}
	if primary.calls.Load() != primaryBefore {
		t.Fatal("genuine 404 still consulted the primary")
	}
}

func TestClusterFailsOverDeadReplicaAndSkipsTrippedBreaker(t *testing.T) {
	primary := newFakeNode(t, 200, 1, `{}`)
	dead := newFakeNode(t, 200, 1, `{}`)
	alive := newFakeNode(t, 200, 1, `{}`)
	opts := clusterOpts(primary, dead, alive)
	opts.Node.BreakerThreshold = 1
	opts.Node.BreakerCooldown = time.Hour
	c := newCluster(t, opts)
	dead.ts.Close()
	ctx := context.Background()

	// Every read succeeds; attempts on the dead node fail over.
	for i := 0; i < 6; i++ {
		if _, err := c.DoRead(ctx, "GET", "/q", nil); err != nil {
			t.Fatal(err)
		}
	}
	counts := c.Counts()
	if counts.Failovers == 0 {
		t.Fatal("dead replica never triggered a failover")
	}
	// The first failure trips the dead node's breaker; later rounds
	// skip it outright instead of re-dialing.
	if counts.BreakerSkips == 0 {
		t.Fatal("tripped breaker never short-circuited node selection")
	}
	if counts.PrimaryReads != 0 {
		t.Fatal("fell back to primary despite a healthy replica")
	}

	// All replicas gone: reads fall back to the primary and still work.
	alive.ts.Close()
	if _, err := c.DoRead(ctx, "GET", "/q", nil); err != nil {
		t.Fatal(err)
	}
	if c.Counts().PrimaryReads != 1 {
		t.Fatalf("PrimaryReads = %d, want 1", c.Counts().PrimaryReads)
	}
}

// TestClusterAgainstRealReplication wires a genuine primary+replica pair
// (journal shipping over TCP) and drives it through the cluster client:
// with zero staleness budget, a read issued right after a write either
// comes from a caught-up replica or fails over to the primary — it is
// never wrong.
func TestClusterAgainstRealReplication(t *testing.T) {
	mkServer := func() *serve.Server {
		store, err := journal.Open(t.TempDir(), journal.Options{Policy: journal.SyncNever, Metrics: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		s := serve.New(serve.Options{Journal: store, Metrics: metrics.NewRegistry()})
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	primary := mkServer()
	replica := mkServer()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go primary.ServeReplication(ctx, l)
	defer l.Close()
	rep := serve.NewReplica(replica, serve.ReplicaOptions{Source: l.Addr().String(), Retry: 20 * time.Millisecond})
	go rep.Run(ctx)

	pHTTP := httptest.NewServer(primary.Handler())
	defer pHTTP.Close()
	rHTTP := httptest.NewServer(replica.Handler())
	defer rHTTP.Close()

	// Stale answers among the reads below may evict the replica; a short
	// cooldown lets the test wait that out once it has caught up.
	opts := ClusterOptions{Primary: pHTTP.URL, Replicas: []string{rHTTP.URL}, Node: fastOpts(""),
		EvictCooldown: 50 * time.Millisecond}
	c := newCluster(t, opts)
	cctx := context.Background()

	if _, err := c.CreateMesh(cctx, "m", 16, 16, []extmesh.Coord{{X: 4, Y: 4}}); err != nil {
		t.Fatal(err)
	}
	src, dst := extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 15, Y: 15}

	// Oracle answer from the primary's own registry.
	n, err := primary.Meshes().Get("m").Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := n.Route(src, dst, extmesh.Blocks)
	if err != nil {
		t.Fatal(err)
	}

	// Immediately after the write the replica may not have applied it;
	// every read must still give the right answer (failover, never
	// staleness).
	for i := 0; i < 8; i++ {
		rr, err := c.Route(cctx, "m", Query{Src: src, Dst: dst})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if rr.Hops != len(want)-1 {
			t.Fatalf("read %d: hops = %d, want %d", i, rr.Hops, len(want)-1)
		}
	}

	// Wait for replication, then confirm reads are served by the
	// replica once it is caught up.
	deadline := time.Now().Add(5 * time.Second)
	for replica.JournalSeq() != primary.JournalSeq() {
		if time.Now().After(deadline) {
			t.Fatal("replica never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for c.nodes[1].evicted(time.Now()) {
		if time.Now().After(deadline) {
			t.Fatal("replica never left eviction")
		}
		time.Sleep(5 * time.Millisecond)
	}
	before := c.nodes[1].client.Counts().Requests
	if _, err := c.Route(cctx, "m", Query{Src: src, Dst: dst}); err != nil {
		t.Fatal(err)
	}
	if c.nodes[1].client.Counts().Requests == before {
		t.Fatal("caught-up replica did not serve the read")
	}

	// A second write advances the watermark; list from the cluster
	// reflects it immediately.
	if _, err := c.ApplyFaults(cctx, "m", FaultsRequest{Fail: []extmesh.Coord{{X: 9, Y: 9}}}); err != nil {
		t.Fatal(err)
	}
	if c.Watermark() != primary.JournalSeq() {
		t.Fatalf("watermark = %d, want primary seq %d", c.Watermark(), primary.JournalSeq())
	}
	list, err := c.ListMeshes(cctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Faults != 2 {
		t.Fatalf("ListMeshes = %+v, want one mesh with 2 faults", list)
	}
}
