package chaos_test

import (
	"bytes"
	"context"
	"net"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/chaos"
	"extmesh/internal/journal"
	"extmesh/internal/metrics"
	"extmesh/internal/serve"
	"extmesh/meshclient"
)

// clusterNode is one journaled meshserved instance under test: server,
// its journal store (kept so tests can close/reopen it for kill/restart
// cycles), its metrics registry, and an HTTP frontend.
type clusterNode struct {
	s     *serve.Server
	store *journal.Store
	reg   *metrics.Registry
	http  *httptest.Server
}

// newClusterNode boots a recovered node over dir. The caller owns the
// store (no t.Cleanup): kill/restart tests close and reopen it.
func newClusterNode(t *testing.T, dir string, compactEvery int) *clusterNode {
	t.Helper()
	reg := metrics.NewRegistry()
	store, err := journal.Open(dir, journal.Options{
		Policy:       journal.SyncNever,
		CompactEvery: compactEvery,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Options{Journal: store, Metrics: reg})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	n := &clusterNode{s: s, store: store, reg: reg}
	n.http = httptest.NewServer(s.Handler())
	return n
}

func (n *clusterNode) close() {
	n.http.Close()
	n.store.Close()
}

// followPrimary attaches node as a read-only replica of source and runs
// it until the returned cancel fires.
func followPrimary(t *testing.T, n *clusterNode, source string) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	rep := serve.NewReplica(n.s, serve.ReplicaOptions{Source: source, Retry: 20 * time.Millisecond})
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// servePrimary runs a replication listener for n, returning its address
// and a stop function that fully tears it down (so the test can kill
// and later restart the primary on the same address).
func servePrimary(t *testing.T, n *clusterNode, addr string) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.s.ServeReplication(ctx, l)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			l.Close()
			<-done
		})
	}
	t.Cleanup(stop)
	return l.Addr().String(), stop
}

func clusterMeshClient(t *testing.T, url string) *meshclient.Client {
	t.Helper()
	c, err := meshclient.New(meshclient.Options{
		BaseURL:          url,
		MaxRetries:       8,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		BreakerThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// clusterQuerySet is the fixed query battery every convergence check
// answers on every node.
var clusterQuerySet = [][2]extmesh.Coord{
	{{X: 0, Y: 0}, {X: 15, Y: 15}},
	{{X: 15, Y: 0}, {X: 0, Y: 15}},
	{{X: 0, Y: 7}, {X: 15, Y: 8}},
	{{X: 7, Y: 0}, {X: 8, Y: 15}},
	{{X: 2, Y: 13}, {X: 13, Y: 2}},
}

// assertBitIdentical requires every node to export byte-identical
// registry state AND give identical answers over the fixed query set.
func assertBitIdentical(t *testing.T, nodes ...*serve.Server) {
	t.Helper()
	base, err := nodes[0].ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes[1:] {
		st, err := n.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, st) {
			t.Fatalf("node %d state diverged:\n base=%s\n node=%s", i+1, base, st)
		}
	}
	for _, name := range nodes[0].Meshes().Names() {
		var wantPaths []extmesh.Path
		var wantErrs []bool
		for ni, node := range nodes {
			d := node.Meshes().Get(name)
			if d == nil {
				t.Fatalf("node %d missing mesh %q", ni, name)
			}
			net, err := d.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range clusterQuerySet {
				p, rerr := net.Route(q[0], q[1], extmesh.Blocks)
				if ni == 0 {
					wantPaths = append(wantPaths, p)
					wantErrs = append(wantErrs, rerr != nil)
					continue
				}
				if (rerr != nil) != wantErrs[qi] {
					t.Fatalf("mesh %q query %d: node %d error %v, node 0 error %v", name, qi, ni, rerr, wantErrs[qi])
				}
				if len(p) != len(wantPaths[qi]) {
					t.Fatalf("mesh %q query %d: node %d path %v, node 0 path %v", name, qi, ni, p, wantPaths[qi])
				}
				for k := range p {
					if p[k] != wantPaths[qi][k] {
						t.Fatalf("mesh %q query %d: node %d path %v, node 0 path %v", name, qi, ni, p, wantPaths[qi])
					}
				}
			}
		}
	}
}

func waitConverged(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterPrimaryKillMidStreamConvergence is the headline chaos
// test: a primary streaming to two replicas is killed mid-stream (no
// checkpoint, listeners cut, journal closed), restarted from its own
// journal, and mutated further. All three nodes must converge to
// byte-identical registry state and identical route answers.
func TestClusterPrimaryKillMidStreamConvergence(t *testing.T) {
	pDir := t.TempDir()
	primary := newClusterNode(t, pDir, -1)
	repAddr, stopPrimary := servePrimary(t, primary, "127.0.0.1:0")

	// r1 streams live; r2 goes through a partitionable proxy so the test
	// can guarantee it is genuinely mid-stream — cut off and behind —
	// when the primary dies.
	r1 := newClusterNode(t, t.TempDir(), -1)
	r2 := newClusterNode(t, t.TempDir(), -1)
	defer r1.close()
	defer r2.close()
	followPrimary(t, r1, repAddr)
	proxy, err := chaos.NewFrameProxy(repAddr, chaos.FramePlan{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	followPrimary(t, r2, proxy.Addr())

	ctx := context.Background()
	client := clusterMeshClient(t, primary.http.URL)
	if _, err := client.CreateMesh(ctx, "m", 16, 16, nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "pre-burst catch-up", 5*time.Second, func() bool {
		return r2.s.JournalSeq() == primary.s.JournalSeq()
	})
	proxy.Partition(true)
	// A burst of mutations, then an immediate kill: r2 is cut off and
	// behind, r1 may be anywhere in the catch-up.
	for i := 0; i < 20; i++ {
		f := extmesh.Coord{X: 1 + i%14, Y: 1 + 2*(i/14)}
		if _, err := client.ApplyFaults(ctx, "m", meshclient.FaultsRequest{Fail: []extmesh.Coord{f}}); err != nil {
			t.Fatal(err)
		}
	}
	killedAt := primary.s.JournalSeq()
	primary.http.Close()
	stopPrimary()
	primary.store.Close()
	if r2.s.JournalSeq() >= killedAt {
		t.Fatalf("test setup: r2 at seq %d was not behind the kill point %d", r2.s.JournalSeq(), killedAt)
	}
	t.Logf("primary killed at seq %d (replicas at %d and %d)", killedAt, r1.s.JournalSeq(), r2.s.JournalSeq())
	proxy.Partition(false)

	// Restart the primary from its journal on the same address. The
	// replicas' reconnect loops have been dialing it the whole time.
	restarted := newClusterNode(t, pDir, -1)
	defer restarted.close()
	if restarted.s.JournalSeq() != killedAt {
		t.Fatalf("restart recovered seq %d, want %d — the journal lost acknowledged records", restarted.s.JournalSeq(), killedAt)
	}
	servePrimary(t, restarted, repAddr)

	// More mutations after the restart prove the stream keeps flowing.
	client2 := clusterMeshClient(t, restarted.http.URL)
	for i := 0; i < 5; i++ {
		f := extmesh.Coord{X: 1 + i, Y: 9}
		if _, err := client2.ApplyFaults(ctx, "m", meshclient.FaultsRequest{Fail: []extmesh.Coord{f}}); err != nil {
			t.Fatal(err)
		}
	}

	head := restarted.s.JournalSeq()
	waitConverged(t, "replicas to converge past the kill", 10*time.Second, func() bool {
		return r1.s.JournalSeq() == head && r2.s.JournalSeq() == head
	})
	assertBitIdentical(t, restarted.s, r1.s, r2.s)
}

// TestClusterPartitionCompactionResync partitions a replica, compacts
// the primary past the replica's offset while it is cut off, then heals
// the partition: incremental resume is impossible, so the replica must
// take the full-snapshot path and still converge bit-identically.
func TestClusterPartitionCompactionResync(t *testing.T) {
	primary := newClusterNode(t, t.TempDir(), 4)
	defer primary.close()
	repAddr, _ := servePrimary(t, primary, "127.0.0.1:0")

	proxy, err := chaos.NewFrameProxy(repAddr, chaos.FramePlan{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	replica := newClusterNode(t, t.TempDir(), -1)
	defer replica.close()
	followPrimary(t, replica, proxy.Addr())

	ctx := context.Background()
	client := clusterMeshClient(t, primary.http.URL)
	if _, err := client.CreateMesh(ctx, "m", 16, 16, nil); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "initial catch-up", 5*time.Second, func() bool {
		return replica.s.JournalSeq() == primary.s.JournalSeq()
	})
	partitionSeq := replica.s.JournalSeq()

	proxy.Partition(true)
	for i := 0; i < 9; i++ {
		f := extmesh.Coord{X: 1 + i, Y: 5}
		if _, err := client.ApplyFaults(ctx, "m", meshclient.FaultsRequest{Fail: []extmesh.Coord{f}}); err != nil {
			t.Fatal(err)
		}
	}
	if primary.store.SnapSeq() <= partitionSeq {
		t.Fatalf("test setup: primary snapshot horizon %d has not passed the replica offset %d", primary.store.SnapSeq(), partitionSeq)
	}
	waitConverged(t, "partition to refuse dials", 5*time.Second, func() bool {
		return proxy.Refusals() > 0
	})
	proxy.Partition(false)

	waitConverged(t, "post-partition resync", 10*time.Second, func() bool {
		return replica.s.JournalSeq() == primary.s.JournalSeq()
	})
	assertBitIdentical(t, primary.s, replica.s)
	if resyncs := replica.reg.Counter("replication_resyncs_total").Value(); resyncs == 0 {
		t.Fatal("replica converged without a snapshot resync — compaction should have forced one")
	}
}

// TestClusterStreamChaosConvergence pushes the replication stream
// through a frame proxy that tears frames mid-body, duplicates them,
// and flips bits — the replica must reject every damaged frame,
// reconnect, resume, and converge bit-identically anyway.
func TestClusterStreamChaosConvergence(t *testing.T) {
	primary := newClusterNode(t, t.TempDir(), -1)
	defer primary.close()
	repAddr, _ := servePrimary(t, primary, "127.0.0.1:0")

	proxy, err := chaos.NewFrameProxy(repAddr, chaos.FramePlan{
		TearEvery:      4,
		DuplicateEvery: 3,
		CorruptEvery:   5,
		Seed:           99,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	replica := newClusterNode(t, t.TempDir(), -1)
	defer replica.close()
	followPrimary(t, replica, proxy.Addr())

	ctx := context.Background()
	client := clusterMeshClient(t, primary.http.URL)
	if _, err := client.CreateMesh(ctx, "m", 16, 16, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		f := extmesh.Coord{X: 1 + i%14, Y: 1 + 2*(i/14)}
		if _, err := client.ApplyFaults(ctx, "m", meshclient.FaultsRequest{Fail: []extmesh.Coord{f}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	waitConverged(t, "convergence through stream chaos", 30*time.Second, func() bool {
		return replica.s.JournalSeq() == primary.s.JournalSeq()
	})
	assertBitIdentical(t, primary.s, replica.s)
	if proxy.Tears() == 0 || proxy.Duplicates() == 0 || proxy.Corruptions() == 0 {
		t.Fatalf("chaos injected nothing (tears=%d dups=%d corrupts=%d) — the test proved nothing",
			proxy.Tears(), proxy.Duplicates(), proxy.Corruptions())
	}
	t.Logf("converged through %d tears, %d duplicates, %d corruptions",
		proxy.Tears(), proxy.Duplicates(), proxy.Corruptions())
}

// TestClusterClientZeroWrongAnswersAcrossReplicaKill drives a
// closed-loop read load through the cluster client while one
// replica is killed mid-run. Errors and retries are tolerated; a wrong
// answer — stale or diverged — is not.
func TestClusterClientZeroWrongAnswersAcrossReplicaKill(t *testing.T) {
	primary := newClusterNode(t, t.TempDir(), -1)
	defer primary.close()
	repAddr, _ := servePrimary(t, primary, "127.0.0.1:0")

	r1 := newClusterNode(t, t.TempDir(), -1)
	r2 := newClusterNode(t, t.TempDir(), -1)
	defer r1.close()
	defer r2.close()
	followPrimary(t, r1, repAddr)
	followPrimary(t, r2, repAddr)

	ctx := context.Background()
	setup := clusterMeshClient(t, primary.http.URL)
	faults := []extmesh.Coord{{X: 3, Y: 3}, {X: 4, Y: 3}, {X: 3, Y: 4}, {X: 10, Y: 10}, {X: 11, Y: 10}}
	if _, err := setup.CreateMesh(ctx, "m", 16, 16, faults); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, "replicas to catch up before the run", 5*time.Second, func() bool {
		head := primary.s.JournalSeq()
		return r1.s.JournalSeq() == head && r2.s.JournalSeq() == head
	})

	// Oracle answers from the primary's own registry.
	n, err := primary.s.Meshes().Get("m").Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantHops := make([]int, len(clusterQuerySet))
	for i, q := range clusterQuerySet {
		p, err := n.Route(q[0], q[1], extmesh.Blocks)
		if err != nil {
			t.Fatal(err)
		}
		wantHops[i] = len(p) - 1
	}

	cluster, err := meshclient.NewCluster(meshclient.ClusterOptions{
		Primary:  primary.http.URL,
		Replicas: []string{r1.http.URL, r2.http.URL},
		Node: meshclient.Options{
			MaxRetries:       4,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       5 * time.Millisecond,
			BreakerThreshold: 3,
			BreakerCooldown:  50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 120
	var wrong, errored, okAfterKill atomic.Uint64
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qi := (w + i) % len(clusterQuerySet)
				q := clusterQuerySet[qi]
				rr, err := cluster.Route(ctx, "m", meshclient.Query{Src: q[0], Dst: q[1]})
				if err != nil {
					errored.Add(1) // allowed: the kill window is violent
					continue
				}
				if rr.Hops != wantHops[qi] {
					wrong.Add(1)
					t.Errorf("worker %d query %d: hops %d, want %d", w, qi, rr.Hops, wantHops[qi])
				}
				select {
				case <-killed:
					okAfterKill.Add(1)
				default:
				}
			}
		}(w)
	}
	// Kill replica 1 mid-run: hard-close its client connections and
	// its listener.
	time.Sleep(20 * time.Millisecond)
	r1.http.CloseClientConnections()
	r1.http.Close()
	close(killed)
	wg.Wait()

	if wrong.Load() != 0 {
		t.Fatalf("%d wrong answers through the kill", wrong.Load())
	}
	if okAfterKill.Load() == 0 {
		t.Fatal("no successful reads after the replica kill — the run proved nothing")
	}
	counts := cluster.Counts()
	if counts.Failovers == 0 && counts.BreakerSkips == 0 {
		t.Fatalf("kill never triggered failover or breaker skip: %+v", counts)
	}
	t.Logf("run: %d errors, %d ok after kill, cluster counts %+v", errored.Load(), okAfterKill.Load(), counts)
}
