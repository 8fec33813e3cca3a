package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"extmesh"
	"extmesh/meshclient"
)

// startClusterNode launches a meshserved process as member idx of a
// failover cluster. Node 0 starts primary; the rest follow it.
func startClusterNode(t *testing.T, bin, httpAddr string, repAddrs []string, idx int) *exec.Cmd {
	t.Helper()
	peers := make([]string, 0, len(repAddrs)-1)
	for i, a := range repAddrs {
		if i != idx {
			peers = append(peers, a)
		}
	}
	args := []string{
		"-addr", httpAddr,
		"-data-dir", t.TempDir(),
		"-fsync", "always",
		"-quiet",
		"-replication-addr", repAddrs[idx],
		"-peers", strings.Join(peers, ","),
		"-node-id", fmt.Sprintf("n%d", idx),
		"-failover-timeout", "600ms",
		"-failover-rank", fmt.Sprint(idx),
		"-rep-heartbeat", "100ms",
	}
	if idx != 0 {
		args = append(args, "-replicate-from", repAddrs[0])
	}
	return startProcess(t, bin, args...)
}

// waitForFollower polls the primary's replication status until a
// follower is attached: before that, a failover-managed primary
// refuses to confirm any write.
func waitForFollower(t *testing.T, primaryURL string) {
	t.Helper()
	waitFor(t, 30*time.Second, func() error {
		resp, err := http.Get(primaryURL + "/replication")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var st struct {
			Followers []json.RawMessage `json:"followers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return err
		}
		if len(st.Followers) == 0 {
			return errors.New("no follower attached to the primary")
		}
		return nil
	})
}

// TestFailoverSmoke is the kill-the-primary audit over real processes:
// three daemons form a cluster, four writers stream acknowledged fault
// writes through the cluster client, the primary is SIGKILLed mid-run,
// a follower promotes itself, and the writers ride the failover to it.
// The surviving cluster must hold every acknowledged write. Each write
// fails one unique coordinate, which makes it resend-safe (a duplicate
// delivery is skipped server-side) and the audit exact (present or
// lost, no ambiguity). Run it with -v for the audit summary.
func TestFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives three real daemon processes")
	}
	const (
		side        = 80 // mesh side: more coordinates than the run writes
		workers     = 4
		beforeKill  = 50 // acknowledged writes before the primary dies
		afterKill   = 20 // acknowledged writes sent after it died
		auditWindow = 30 * time.Second
	)
	bin := buildDaemon(t)
	repAddrs := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	urls := make([]string, len(repAddrs))
	nodes := make([]*exec.Cmd, len(repAddrs))
	for i := range nodes {
		addr := freeAddr(t)
		urls[i] = "http://" + addr
		nodes[i] = startClusterNode(t, bin, addr, repAddrs, i)
	}

	// The cluster accepts a write only once a follower confirms it, and
	// refuses the create outright (non-idempotent, so not retried) while
	// no follower is attached yet; wait for one, after which a successful
	// mesh creation is the "cluster formed" gate.
	waitForFollower(t, urls[0])
	cc, err := meshclient.NewCluster(meshclient.ClusterOptions{
		Primary:  urls[0],
		Replicas: urls[1:],
		Node: meshclient.Options{
			BaseBackoff: 20 * time.Millisecond,
			MaxBackoff:  200 * time.Millisecond,
			MaxRetries:  5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*auditWindow)
	defer cancel()
	if _, err := cc.CreateMesh(ctx, "m", side, side, []extmesh.Coord{}); err != nil {
		t.Fatalf("cluster never formed: %v", err)
	}

	var (
		next, errs, ackedAfterKill atomic.Int64
		killed                     atomic.Bool
		mu                         sync.Mutex
		acked                      []extmesh.Coord
		wg                         sync.WaitGroup
	)
	ackedCount := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	wctx, stopWriters := context.WithCancel(ctx)
	defer func() { stopWriters(); wg.Wait() }()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wctx.Err() == nil {
				i := next.Add(1) - 1
				c := extmesh.Coord{X: int(i % side), Y: int(i / side % side)}
				sentAfterKill := killed.Load()
				body, err := json.Marshal(meshclient.FaultsRequest{Fail: []extmesh.Coord{c}})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := cc.DoWrite(wctx, "POST", "/v1/mesh/m/faults", body, true); err != nil {
					if wctx.Err() == nil {
						errs.Add(1)
					}
					continue
				}
				mu.Lock()
				acked = append(acked, c)
				mu.Unlock()
				if sentAfterKill {
					ackedAfterKill.Add(1)
				}
			}
		}()
	}

	waitFor(t, auditWindow, func() error {
		if n := ackedCount(); n < beforeKill {
			return fmt.Errorf("%d writes acknowledged before the kill, want %d", n, beforeKill)
		}
		return nil
	})
	// Reap the primary before marking the kill, so a write sent after the
	// mark cannot have been acknowledged by the dying process.
	primary := nodes[0]
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	if ws, ok := primary.ProcessState.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("primary was not killed by SIGKILL: %v", primary.ProcessState)
	}
	killed.Store(true)
	t.Logf("kill-primary: SIGKILL pid %d after %d acknowledged writes", primary.Process.Pid, ackedCount())
	waitFor(t, auditWindow, func() error {
		if n := ackedAfterKill.Load(); n < afterKill {
			return fmt.Errorf("%d writes acknowledged after the kill, want %d", n, afterKill)
		}
		return nil
	})
	stopWriters()
	wg.Wait()

	// Audit against whoever won: rediscover the primary, export the
	// mesh, and check off every acknowledged coordinate.
	var st *meshclient.MeshState
	waitFor(t, 15*time.Second, func() error {
		cc.Rediscover(ctx)
		var err error
		st, err = cc.GetMesh(ctx, "m")
		return err
	})
	have := make(map[extmesh.Coord]bool, len(st.Faults))
	for _, c := range st.Faults {
		have[c] = true
	}
	lost := 0
	for _, c := range acked {
		if !have[c] {
			lost++
			if lost <= 8 {
				t.Errorf("LOST acked write: fault (%d,%d)", c.X, c.Y)
			}
		}
	}
	counts := cc.Counts()
	t.Logf("kill-primary audit: mesh m(%dx%d), primary now %s (epoch %d)", side, side, cc.PrimaryAddr(), cc.Epoch())
	t.Logf("cluster: %d writes, %d rediscoveries, %d stale rejects", counts.Writes, counts.Rediscoveries, counts.StaleRejects)
	t.Logf("acked writes: %d (%d sent after the kill), write errors: %d, lost: %d",
		len(acked), ackedAfterKill.Load(), errs.Load(), lost)
	if lost > 0 {
		t.Fatalf("%d acknowledged writes lost across failover", lost)
	}
	// The promoted node — not the dead one — must be serving writes.
	if cc.PrimaryAddr() == urls[0] {
		t.Fatalf("writers still point at the killed primary %s", urls[0])
	}
}
