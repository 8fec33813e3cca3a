package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"testing"
	"time"

	"extmesh"
	"extmesh/meshclient"
)

// buildDaemon compiles the meshserved binary into the test's temp dir.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "meshserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary against dataDir and waits until
// /readyz answers 200. It returns the process and a client.
func startDaemon(t *testing.T, bin, dataDir string) (*exec.Cmd, *meshclient.Client) {
	t.Helper()
	addr := freeAddr(t)
	cmd := startProcess(t, bin, "-addr", addr, "-data-dir", dataDir, "-fsync", "always", "-quiet")
	c, err := meshclient.New(meshclient.Options{
		BaseURL:     "http://" + addr,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, func() error {
		ready, err := c.Ready(context.Background())
		if err == nil && !ready {
			err = fmt.Errorf("daemon on %s not ready", addr)
		}
		return err
	})
	return cmd, c
}

// batchFor is the scripted mutation sequence both the crashed and the
// control daemon apply: a fail every step, plus a recover of an older
// fault on the back half, so replay must reproduce interleaved
// fail/recover history, not just accumulation.
func batchFor(i int) meshclient.FaultsRequest {
	req := meshclient.FaultsRequest{Fail: []extmesh.Coord{{X: i, Y: i}}}
	if i >= 5 {
		req.Recover = []extmesh.Coord{{X: i - 5, Y: i - 5}}
	}
	return req
}

// interleaved is an ordered fail, repair, fail sequence mid-history,
// one request per step: 12,12 fails and recovers, 13,13 stays failed.
var interleaved = []meshclient.FaultsRequest{
	{Fail: []extmesh.Coord{{X: 12, Y: 12}}},
	{Recover: []extmesh.Coord{{X: 12, Y: 12}}},
	{Fail: []extmesh.Coord{{X: 13, Y: 13}}},
}

// queryBattery collects raw response bytes for a fixed set of queries;
// two servers with identical mesh state must produce identical bytes.
func queryBattery(t *testing.T, c *meshclient.Client) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`,
			(i*3)%16, (i*5)%16, (i*7+1)%16, (i*11+3)%16)
		for _, ep := range []string{"/route", "/safe", "/ensure", "/has-minimal-path"} {
			resp, err := c.Do(ctx, "POST", "/v1/mesh/m"+ep, []byte(body), true)
			if err != nil {
				// Unroutable pairs answer 422; capture status+body either way.
				if resp == nil {
					t.Fatalf("battery %s: %v", ep, err)
				}
			}
			out = append(out, fmt.Sprintf("%s %d %s", ep, resp.Status, resp.Body))
		}
	}
	return out
}

func sortedFaults(st *meshclient.MeshState) []extmesh.Coord {
	fs := append([]extmesh.Coord(nil), st.Faults...)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].X != fs[j].X {
			return fs[i].X < fs[j].X
		}
		return fs[i].Y < fs[j].Y
	})
	return fs
}

// TestCrashRecoverySIGKILL is the headline durability test: a daemon
// is killed with SIGKILL halfway through a scripted mutation sequence,
// restarted over the same data dir, and driven through the remaining
// mutations. Its final state and query answers must be identical to a
// control daemon that ran the whole sequence uninterrupted.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemon processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	ctx := context.Background()

	// Phase 1: boot, create the mesh, apply the first half.
	cmd, c := startDaemon(t, bin, dataDir)
	if _, err := c.CreateMesh(ctx, "m", 16, 16, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.ApplyFaults(ctx, "m", batchFor(i)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	for _, req := range interleaved {
		if _, err := c.ApplyFaults(ctx, "m", req); err != nil {
			t.Fatal(err)
		}
	}

	// SIGKILL: no drain, no final snapshot — recovery must come from
	// the journal alone (-fsync always made every ack durable).
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Phase 2: restart over the same dir, finish the sequence.
	_, c2 := startDaemon(t, bin, dataDir)
	st, err := c2.GetMesh(ctx, "m")
	if err != nil {
		t.Fatalf("mesh lost across SIGKILL: %v", err)
	}
	// Mid-point sanity: 5 fails + net one fault from the interleaving = 6.
	if st.Faults == nil || len(st.Faults) != 6 {
		t.Fatalf("recovered mid-point faults = %v, want 6", st.Faults)
	}
	for i := 5; i < 10; i++ {
		if _, err := c2.ApplyFaults(ctx, "m", batchFor(i)); err != nil {
			t.Fatalf("post-recovery batch %d: %v", i, err)
		}
	}

	// Control: the same full sequence, never interrupted.
	_, cc := startDaemon(t, bin, t.TempDir())
	if _, err := cc.CreateMesh(ctx, "m", 16, 16, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cc.ApplyFaults(ctx, "m", batchFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range interleaved {
		if _, err := cc.ApplyFaults(ctx, "m", req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < 10; i++ {
		if _, err := cc.ApplyFaults(ctx, "m", batchFor(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Compare final states: dimensions, version, fault set.
	got, err := c2.GetMesh(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	want, err := cc.GetMesh(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != want.Width || got.Height != want.Height {
		t.Errorf("dimensions %dx%d, want %dx%d", got.Width, got.Height, want.Width, want.Height)
	}
	if got.Version != want.Version {
		t.Errorf("version after recovery = %d, control = %d", got.Version, want.Version)
	}
	gf, wf := sortedFaults(got), sortedFaults(want)
	if len(gf) != len(wf) {
		t.Fatalf("fault count = %d, control = %d (%v vs %v)", len(gf), len(wf), gf, wf)
	}
	for i := range gf {
		if gf[i] != wf[i] {
			t.Fatalf("fault sets diverge: %v vs control %v", gf, wf)
		}
	}

	// Query answers must be bit-identical: same routes, same verdicts.
	gb, wb := queryBattery(t, c2), queryBattery(t, cc)
	for i := range gb {
		if gb[i] != wb[i] {
			t.Errorf("battery[%d] diverges:\n recovered: %s\n control:   %s", i, gb[i], wb[i])
		}
	}

	// Stats agree on durable fields (reach-cache counters are runtime
	// state and legitimately differ).
	gs, err := c2.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	ws, err := cc.Stats(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if gs.Faults != ws.Faults || gs.Version != ws.Version {
		t.Errorf("stats diverge: faults %d/%d version %d/%d", gs.Faults, ws.Faults, gs.Version, ws.Version)
	}
}

// TestRestartAfterGracefulDrain checks the happy path: SIGTERM writes
// a final snapshot and the next boot recovers from it replay-free.
func TestRestartAfterGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and restarts real daemon processes")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	ctx := context.Background()

	cmd, c := startDaemon(t, bin, dataDir)
	if _, err := c.CreateMesh(ctx, "m", 12, 12, []extmesh.Coord{{X: 2, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyFaults(ctx, "m", meshclient.FaultsRequest{Fail: []extmesh.Coord{{X: 7, Y: 7}}}); err != nil {
		t.Fatal(err)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}

	_, c2 := startDaemon(t, bin, dataDir)
	st, err := c2.GetMesh(ctx, "m")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Faults) != 2 || st.Version != 2 {
		t.Fatalf("recovered state = %d faults version %d, want 2/2", len(st.Faults), st.Version)
	}
}
