package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// The daemon harness shared by every test in this package: in-process
// daemons (startRun), daemon processes (startProcess), ephemeral
// addresses, a log buffer safe to read while the daemon writes, and one
// deadline-bounded poll.

// freeAddr reserves an ephemeral loopback port and releases it for a
// daemon to re-listen on; the tiny reuse race is acceptable in tests.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// lockedBuffer collects a daemon's log; the test may read it while the
// daemon's goroutines or the exec package's copier are still writing.
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

// waitFor polls cond until it returns nil and fails the test with
// cond's last error if that takes longer than timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gave up after %s: %v", timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startRun runs the daemon in-process with args until ctx is cancelled.
// It returns the daemon's log and a channel that yields run's result;
// the log is printed if the test fails.
func startRun(t *testing.T, ctx context.Context, args ...string) (*lockedBuffer, <-chan error) {
	t.Helper()
	out := &lockedBuffer{}
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("meshserved %s log:\n%s", strings.Join(args, " "), out)
		}
	})
	return out, errc
}

// waitExit requires an in-process daemon to return nil from run
// within 10s of its context being cancelled.
func waitExit(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

// startProcess launches the built daemon binary with args. The process
// is killed when the test ends, and its log is printed if the test
// fails.
func startProcess(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	out := &lockedBuffer{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("meshserved %s log:\n%s", strings.Join(args, " "), out)
		}
	})
	return cmd
}

// waitHealthy waits for the daemon at base to answer /healthz.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	waitFor(t, 10*time.Second, func() error {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
}

func TestBuildMeshSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		name    string
		w, h, k int
		ok      bool
	}{
		{"m:16x16", "m", 16, 16, 0, true},
		{"prod:200x200:40:1", "prod", 200, 200, 40, true},
		{"a:8x4:3", "a", 8, 4, 3, true},
		{"noseparator", "", 0, 0, 0, false},
		{"m:16", "", 0, 0, 0, false},
		{"m:axb", "", 0, 0, 0, false},
		{"m:0x5", "", 0, 0, 0, false},
		{"m:4x4:nan", "", 0, 0, 0, false},
		{"m:4x4:2:1:extra", "", 0, 0, 0, false},
	} {
		name, d, err := buildMesh(tc.spec)
		if !tc.ok {
			if err == nil {
				t.Errorf("%q: accepted, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.spec, err)
			continue
		}
		if name != tc.name || d.Width() != tc.w || d.Height() != tc.h || d.FaultCount() != tc.k {
			t.Errorf("%q: got %s %dx%d k=%d", tc.spec, name, d.Width(), d.Height(), d.FaultCount())
		}
	}
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port with a
// preloaded mesh, queries it over real HTTP, then cancels the context
// and requires a clean drain.
func TestDaemonEndToEnd(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, errc := startRun(t, ctx, "-addr", addr, "-mesh", "m:16x16:5:1", "-quiet", "-drain-timeout", "2s")
	base := "http://" + addr
	waitHealthy(t, base)

	body := strings.NewReader(`{"src":{"x":0,"y":0},"dst":{"x":15,"y":15}}`)
	r2, err := http.Post(base+"/v1/mesh/m/route", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		Hops int `json:"hops"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK || rr.Hops != 30 {
		t.Errorf("route = %d hops=%d, want 200 hops=30", r2.StatusCode, rr.Hops)
	}

	cancel()
	waitExit(t, errc)
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("missing drain log:\n%s", out.String())
	}
}

func TestDaemonBadMeshSpec(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-mesh", "bad"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want spec failure", err)
	}
}

func TestDaemonAddrInUse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var out bytes.Buffer
	err = run(context.Background(), []string{"-addr", l.Addr().String()}, &out)
	if err == nil {
		t.Fatal("second bind succeeded")
	}
	if !strings.Contains(fmt.Sprint(err), "in use") {
		t.Logf("note: bind error was %v", err)
	}
}

func TestReplicationFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-replication-addr", ":0"},        // no -data-dir
		{"-replicate-from", "localhost:1"}, // no -data-dir
		{"-data-dir", t.TempDir(), "-replication-addr", ":0", "-replicate-from", "localhost:1"}, // both roles
		{"-data-dir", t.TempDir(), "-replicate-from", "localhost:1", "-mesh", "m:8x8"},          // preload on a replica
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("args %v accepted, want validation error", args)
		}
	}
}

// TestDrainClosesAllPlanes covers the shutdown bug: a SIGTERM-style
// cancel must drain the HTTP plane AND close the binary listener's
// persistent connections and the replication listener — none of them
// may outlive run().
func TestDrainClosesAllPlanes(t *testing.T) {
	addr, binAddr, repAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, errc := startRun(t, ctx,
		"-addr", addr, "-binary-addr", binAddr,
		"-data-dir", t.TempDir(), "-replication-addr", repAddr,
		"-mesh", "m:8x8:2:1", "-quiet", "-drain-timeout", "2s")
	waitHealthy(t, "http://"+addr)

	// A persistent, idle binary connection — exactly what a pipelining
	// client parks between bursts.
	conn, err := net.Dial("tcp", binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cancel()
	waitExit(t, errc)
	// The parked connection must have been closed by the drain.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("binary connection still open after drain")
	}
}

// TestDaemonReplicaPair boots a primary and a read-only replica as two
// full daemons wired by -replication-addr/-replicate-from, mutates the
// primary over HTTP, and requires the replica to converge, answer
// queries identically, and refuse writes.
func TestDaemonReplicaPair(t *testing.T) {
	pAddr, repAddr := freeAddr(t), freeAddr(t)
	rAddr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, perrc := startRun(t, ctx,
		"-addr", pAddr, "-data-dir", t.TempDir(), "-replication-addr", repAddr,
		"-quiet", "-drain-timeout", "2s")
	waitHealthy(t, "http://"+pAddr)
	_, rerrc := startRun(t, ctx,
		"-addr", rAddr, "-data-dir", t.TempDir(), "-replicate-from", repAddr,
		"-quiet", "-drain-timeout", "2s")
	waitHealthy(t, "http://"+rAddr)

	// Create a mesh and inject faults on the primary.
	body := strings.NewReader(`{"name":"m","width":16,"height":16,"faults":[{"x":4,"y":4},{"x":5,"y":5}]}`)
	resp, err := http.Post("http://"+pAddr+"/v1/mesh", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("create = %d", resp.StatusCode)
	}

	// The replica converges: same mesh, same route answer.
	route := `{"src":{"x":0,"y":0},"dst":{"x":15,"y":15}}`
	var hops int
	waitFor(t, 10*time.Second, func() error {
		r, err := http.Post("http://"+rAddr+"/v1/mesh/m/route", "application/json", strings.NewReader(route))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return fmt.Errorf("replica route = %d, want 200", r.StatusCode)
		}
		var rr struct {
			Hops int `json:"hops"`
		}
		if err := json.NewDecoder(r.Body).Decode(&rr); err != nil {
			return err
		}
		hops = rr.Hops
		return nil
	})
	pr, err := http.Post("http://"+pAddr+"/v1/mesh/m/route", "application/json", strings.NewReader(route))
	if err != nil {
		t.Fatal(err)
	}
	var prr struct {
		Hops int `json:"hops"`
	}
	json.NewDecoder(pr.Body).Decode(&prr)
	pr.Body.Close()
	if hops != prr.Hops {
		t.Fatalf("replica hops %d != primary hops %d", hops, prr.Hops)
	}

	// Writes on the replica are refused.
	wr, err := http.Post("http://"+rAddr+"/v1/mesh", "application/json",
		strings.NewReader(`{"name":"x","width":4,"height":4}`))
	if err != nil {
		t.Fatal(err)
	}
	wr.Body.Close()
	if wr.StatusCode != 403 {
		t.Fatalf("replica write = %d, want 403", wr.StatusCode)
	}

	// Roles visible over /replication.
	var status struct {
		Role string `json:"role"`
	}
	sr, err := http.Get("http://" + rAddr + "/replication")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(sr.Body).Decode(&status)
	sr.Body.Close()
	if status.Role != "replica" {
		t.Fatalf("replica role = %q", status.Role)
	}

	cancel()
	waitExit(t, perrc)
	waitExit(t, rerrc)
}
