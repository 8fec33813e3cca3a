package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"extmesh"
	"extmesh/meshclient"
)

// freePort reserves a loopback port by listening and closing; the tiny
// reuse race is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// smokeNode is one real meshserved process in the failover cluster.
type smokeNode struct {
	cmd     *exec.Cmd
	httpURL string
	log     *lockedBuffer
}

// lockedBuffer collects a process's output; the test may read it while
// the exec package's copier is still writing.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitForFollower polls the primary's replication status until a
// follower is attached: before that, a failover-managed primary
// refuses to confirm any write.
func waitForFollower(t *testing.T, primaryURL string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st struct {
			Followers []json.RawMessage `json:"followers"`
		}
		if resp, err := http.Get(primaryURL + "/replication"); err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err == nil && len(st.Followers) > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no follower attached to the primary within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startClusterNode launches a meshserved process as a failover cluster
// member. Node 0 starts primary; the rest follow it.
func startClusterNode(t *testing.T, bin, dataDir string, httpAddr string, repAddrs []string, idx int) *smokeNode {
	t.Helper()
	peers := make([]string, 0, len(repAddrs)-1)
	for i, a := range repAddrs {
		if i != idx {
			peers = append(peers, a)
		}
	}
	args := []string{
		"-addr", httpAddr,
		"-data-dir", dataDir,
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
	n := &smokeNode{httpURL: "http://" + httpAddr, log: &lockedBuffer{}}
	n.cmd = exec.Command(bin, args...)
	n.cmd.Stdout = n.log
	n.cmd.Stderr = n.log
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n.cmd.Process != nil {
			n.cmd.Process.Kill()
			n.cmd.Wait()
		}
	})
	return n
}

func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", dir, err, out)
	}
	return bin
}

// TestFailoverSmoke is the end-to-end acceptance run for automatic
// failover, over real processes: three daemons form a cluster,
// meshstress -kill-primary-after streams acknowledged fault writes and
// SIGKILLs the primary mid-run, a follower promotes itself, the writers
// fail over to it, and the audit must report zero acked-write loss.
func TestFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives four real processes")
	}
	served := buildBinary(t, "../meshserved", "meshserved")
	stress := buildBinary(t, ".", "meshstress")

	httpAddrs := []string{freePort(t), freePort(t), freePort(t)}
	repAddrs := []string{freePort(t), freePort(t), freePort(t)}
	nodes := make([]*smokeNode, 3)
	for i := range nodes {
		nodes[i] = startClusterNode(t, served, t.TempDir(), httpAddrs[i], repAddrs, i)
	}

	// The cluster accepts a write only once a follower confirms it, and
	// refuses the create outright (non-idempotent, so not retried) while
	// no follower is attached yet; wait for one, after which a successful
	// mesh creation is the "cluster formed" gate.
	waitForFollower(t, nodes[0].httpURL)
	cc, err := meshclient.NewCluster(meshclient.ClusterOptions{
		Primary:  nodes[0].httpURL,
		Replicas: []string{nodes[1].httpURL, nodes[2].httpURL},
		Node: meshclient.Options{
			BaseBackoff: 20 * time.Millisecond,
			MaxBackoff:  200 * time.Millisecond,
			MaxRetries:  30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cc.CreateMesh(ctx, "m", 80, 80, []extmesh.Coord{}); err != nil {
		t.Fatalf("cluster never formed: %v\nprimary log:\n%s", err, nodes[0].log)
	}

	var out bytes.Buffer
	args := []string{
		"-addr", nodes[0].httpURL,
		"-replicas", nodes[1].httpURL + "," + nodes[2].httpURL,
		"-mesh", "m",
		"-workers", "4",
		"-duration", "6s",
		"-retries", "5",
		"-kill-primary-after", "1s",
		"-kill-primary-pid", fmt.Sprint(nodes[0].cmd.Process.Pid),
	}
	cmd := exec.Command(stress, args...)
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		t.Fatalf("meshstress kill-primary audit failed: %v\n%s\nfollower logs:\n%s\n%s",
			err, out.String(), nodes[1].log, nodes[2].log)
	}
	report := out.String()
	if !strings.Contains(report, "lost: 0") {
		t.Fatalf("audit did not report zero loss:\n%s", report)
	}
	if !strings.Contains(report, "SIGKILL") {
		t.Fatalf("audit never killed the primary:\n%s", report)
	}
	// The promoted node — not the dead one — must be serving writes.
	if strings.Contains(report, "primary now "+nodes[0].httpURL) {
		t.Fatalf("audit still points at the killed primary:\n%s", report)
	}
}
