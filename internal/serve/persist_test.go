package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"extmesh"
	"extmesh/internal/journal"
	"extmesh/internal/metrics"
)

// newJournaledServer opens a store over dir and returns a recovered,
// ready server wrapped in an httptest server.
func newJournaledServer(t *testing.T, dir string, jopts journal.Options) (*Server, *httptest.Server) {
	t.Helper()
	if jopts.Metrics == nil {
		jopts.Metrics = metrics.NewRegistry()
	}
	jopts.Policy = journal.SyncNever // tests need no crash durability
	store, err := journal.Open(dir, jopts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Metrics: metrics.NewRegistry(), Journal: store})
	if s.Ready() {
		t.Fatal("journaled server ready before Recover")
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("server not ready after Recover")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { store.Close() })
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRecoverReplaysEventsRecord boots a server over a data directory
// that holds an OpEvents record, which servers wrote for the removed
// fault-schedule admin form: an ordered, interleaved fail/recover
// sequence with its spec as provenance. Recovery must still replay it
// event by event, so such directories keep their faults and version.
func TestRecoverReplaysEventsRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := journal.Open(dir, journal.Options{Metrics: metrics.NewRegistry(), Policy: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Recover(); err != nil {
		t.Fatal(err)
	}
	d, err := extmesh.NewDynamic(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	put, err := putRecord("m", d)
	if err != nil {
		t.Fatal(err)
	}
	ev := func(op string, x, y int) journal.FaultEvent {
		return journal.FaultEvent{Op: op, Node: extmesh.Coord{X: x, Y: y}}
	}
	for _, r := range []journal.Record{put, {
		Op:     journal.OpEvents,
		Name:   "m",
		Events: []journal.FaultEvent{ev("fail", 5, 5), ev("fail", 7, 7), ev("recover", 5, 5), ev("fail", 6, 6), ev("fail", 6, 6)},
		Spec:   "fail@0:5,5;fail@0:7,7;recover@1:5,5;fail@2:6,6;fail@3:6,6",
	}} {
		if _, err := store.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	live, _ := newJournaledServer(t, dir, journal.Options{})
	got := live.Meshes().Get("m")
	if got == nil {
		t.Fatal("mesh m not recovered")
	}
	// Four events change state; the repeated fail of 6,6 is skipped.
	faults := got.Faults()
	if len(faults) != 2 || !got.IsFaulty(extmesh.Coord{X: 6, Y: 6}) || !got.IsFaulty(extmesh.Coord{X: 7, Y: 7}) {
		t.Errorf("recovered faults = %v, want 6,6 and 7,7", faults)
	}
	if got.Version() != 4 {
		t.Errorf("recovered version = %d, want 4", got.Version())
	}
}

// TestJournaledMutationsSurviveRestart is the serve-layer durability
// round trip: create, mutate and delete over HTTP, then recover a
// fresh server from the same dir and compare registry state exactly.
func TestJournaledMutationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newJournaledServer(t, dir, journal.Options{})

	if code, _ := postJSON(t, ts.URL+"/v1/mesh", `{"name":"m","width":16,"height":16}`); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/mesh", `{"name":"doomed","width":8,"height":8}`); code != http.StatusCreated {
		t.Fatalf("create doomed = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/mesh/m/faults", `{"fail":[{"x":2,"y":2},{"x":3,"y":3}]}`); code != http.StatusOK {
		t.Fatalf("faults = %d", code)
	}
	// An interleaved fail, repair, fail sequence, one request per step.
	for _, body := range []string{`{"fail":[{"x":5,"y":5}]}`, `{"recover":[{"x":5,"y":5}]}`, `{"fail":[{"x":6,"y":6}]}`} {
		if code, _ := postJSON(t, ts.URL+"/v1/mesh/m/faults", body); code != http.StatusOK {
			t.Fatalf("faults %s = %d", body, code)
		}
	}
	// A recover of an existing fault plus a skipped duplicate.
	if code, _ := postJSON(t, ts.URL+"/v1/mesh/m/faults", `{"fail":[{"x":2,"y":2}],"recover":[{"x":3,"y":3}]}`); code != http.StatusOK {
		t.Fatalf("faults 2 = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/mesh/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", resp.StatusCode)
	}

	wantFaults := []extmesh.Coord{{X: 2, Y: 2}, {X: 6, Y: 6}}
	var wantVersion uint64
	{
		live, ts2 := newJournaledServer(t, dir, journal.Options{})
		defer ts2.Close()
		d := live.Meshes().Get("m")
		if d == nil {
			t.Fatal("mesh m not recovered")
		}
		if live.Meshes().Get("doomed") != nil {
			t.Fatal("deleted mesh resurrected")
		}
		gotFaults := d.Faults()
		faultSet := map[extmesh.Coord]bool{}
		for _, c := range gotFaults {
			faultSet[c] = true
		}
		if len(gotFaults) != len(wantFaults) || !faultSet[wantFaults[0]] || !faultSet[wantFaults[1]] {
			t.Errorf("recovered faults = %v, want set %v", gotFaults, wantFaults)
		}
		// Version must match the uninterrupted history: 2 creates... the
		// mesh's own counter: 2 fails + (1 fail,1 recover,1 fail) + (1
		// skip is not counted, 1 recover) = 2+3+1 = 6 mutations.
		wantVersion = 6
		if d.Version() != wantVersion {
			t.Errorf("recovered version = %d, want %d", d.Version(), wantVersion)
		}
	}

	// Second recovery (now from the checkpoint the first recovery
	// wrote) must agree — exercises the snapshot + RestoreVersion path.
	live2, _ := newJournaledServer(t, dir, journal.Options{})
	d := live2.Meshes().Get("m")
	if d == nil || d.Version() != wantVersion || d.FaultCount() != len(wantFaults) {
		t.Fatalf("checkpoint recovery: version=%d faults=%d, want %d/%d",
			d.Version(), d.FaultCount(), wantVersion, len(wantFaults))
	}
}

// TestJournalCompactionMidStream forces a snapshot on every mutation
// (CompactEvery=1) and checks recovery still reproduces exact state —
// the RestoreVersion continuity path under maximal compaction churn.
func TestJournalCompactionMidStream(t *testing.T) {
	dir := t.TempDir()
	_, ts := newJournaledServer(t, dir, journal.Options{CompactEvery: 1})
	if code, _ := postJSON(t, ts.URL+"/v1/mesh", `{"name":"m","width":12,"height":12}`); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	for i := 1; i <= 4; i++ {
		body := fmt.Sprintf(`{"fail":[{"x":%d,"y":%d}]}`, i, i)
		if code, _ := postJSON(t, ts.URL+"/v1/mesh/m/faults", body); code != http.StatusOK {
			t.Fatalf("fault %d failed", i)
		}
	}

	live, _ := newJournaledServer(t, dir, journal.Options{})
	d := live.Meshes().Get("m")
	if d == nil {
		t.Fatal("mesh not recovered")
	}
	if d.FaultCount() != 4 || d.Version() != 4 {
		t.Errorf("faults=%d version=%d, want 4/4", d.FaultCount(), d.Version())
	}
	for i := 1; i <= 4; i++ {
		if !d.IsFaulty(extmesh.Coord{X: i, Y: i}) {
			t.Errorf("fault (%d,%d) lost across compaction", i, i)
		}
	}
}

// TestReadyz pins the readiness lifecycle: journaled servers answer
// 503 with a Retry-After until recovery completes, memory-only servers
// are born ready.
func TestReadyz(t *testing.T) {
	store, err := journal.Open(t.TempDir(), journal.Options{Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	s := New(Options{Metrics: metrics.NewRegistry(), Journal: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before recovery = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 readyz missing Retry-After")
	}
	// Liveness is separate: /healthz answers 200 even while recovering.
	if hresp, err := http.Get(ts.URL + "/healthz"); err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while recovering = %v %v, want 200", hresp.StatusCode, err)
	}

	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", resp2.StatusCode)
	}

	mem := New(Options{Metrics: metrics.NewRegistry()})
	if !mem.Ready() {
		t.Error("memory-only server not born ready")
	}
}

// TestRegisterMeshJournaled checks the daemon preload path journals
// like API creations.
func TestRegisterMeshJournaled(t *testing.T) {
	dir := t.TempDir()
	s, _ := newJournaledServer(t, dir, journal.Options{})
	d, err := extmesh.NewDynamic(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddFault(extmesh.Coord{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterMesh("pre", d); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterMesh("pre", d); err == nil {
		t.Fatal("duplicate RegisterMesh accepted")
	}

	live, _ := newJournaledServer(t, dir, journal.Options{})
	got := live.Meshes().Get("pre")
	if got == nil || got.FaultCount() != 1 || !got.IsFaulty(extmesh.Coord{X: 1, Y: 1}) {
		t.Fatalf("preloaded mesh not recovered: %+v", got)
	}
}
