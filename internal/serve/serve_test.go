package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/wire"
)

// testFaults is a fixed fault set with interesting structure on a
// 16x16 mesh.
var testFaults = []extmesh.Coord{
	{X: 5, Y: 5}, {X: 5, Y: 6}, {X: 6, Y: 5}, {X: 10, Y: 2}, {X: 3, Y: 12},
}

// newTestServer returns a server preloaded with one 16x16 mesh named
// "m" plus a matching direct Network for parity checks.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *extmesh.Network) {
	t.Helper()
	s := New(Options{})
	d, err := extmesh.NewDynamic(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range testFaults {
		if err := d.AddFault(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Meshes().Create("m", d); err != nil {
		t.Fatal(err)
	}
	direct, err := extmesh.New(16, 16, testFaults)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, direct
}

// post sends a JSON body and decodes the JSON response into out.
func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode
}

func TestMeshLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// Create a second mesh from a spec.
	var info wire.MeshInfo
	code := post(t, ts.URL+"/v1/mesh", wire.CreateRequest{
		Name: "grid", Width: 8, Height: 8, Faults: []extmesh.Coord{{X: 2, Y: 2}},
	}, &info)
	if code != http.StatusCreated || info.Width != 8 || info.Faults != 1 {
		t.Fatalf("create = %d %+v", code, info)
	}
	// Duplicate name conflicts.
	if code := post(t, ts.URL+"/v1/mesh", wire.CreateRequest{Name: "grid", Width: 4, Height: 4}, nil); code != http.StatusConflict {
		t.Errorf("duplicate create = %d, want 409", code)
	}
	// Invalid name and dimensions are rejected.
	if code := post(t, ts.URL+"/v1/mesh", wire.CreateRequest{Name: "../etc", Width: 4, Height: 4}, nil); code != http.StatusBadRequest {
		t.Errorf("bad name = %d, want 400", code)
	}
	if code := post(t, ts.URL+"/v1/mesh", wire.CreateRequest{Name: "big", Width: 1 << 20, Height: 1 << 20}, nil); code != http.StatusBadRequest {
		t.Errorf("absurd dims = %d, want 400", code)
	}

	// List shows both meshes sorted.
	var list struct {
		Meshes []wire.MeshInfo `json:"meshes"`
	}
	if code := get(t, ts.URL+"/v1/mesh", &list); code != http.StatusOK || len(list.Meshes) != 2 {
		t.Fatalf("list = %d %+v", code, list)
	}
	if list.Meshes[0].Name != "grid" || list.Meshes[1].Name != "m" {
		t.Errorf("list order = %+v", list.Meshes)
	}

	// Get exports the blob; it round-trips through UnmarshalNetwork.
	resp, err := http.Get(ts.URL + "/v1/mesh/m")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	back, err := extmesh.UnmarshalNetwork(blob)
	if err != nil {
		t.Fatalf("exported blob does not decode: %v\n%s", err, blob)
	}
	if len(back.Faults()) != len(testFaults) {
		t.Errorf("export lost faults: %v", back.Faults())
	}

	// Upload replaces: PUT the exported blob under a new name.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/mesh/copy", bytes.NewReader(blob))
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusCreated {
		t.Fatalf("upload = %d, want 201", r2.StatusCode)
	}
	// Re-upload over the same name reports 200.
	req2, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/mesh/copy", bytes.NewReader(blob))
	r3, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("re-upload = %d, want 200", r3.StatusCode)
	}

	// Delete, then 404.
	req3, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/mesh/copy", nil)
	r4, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", r4.StatusCode)
	}
	if code := get(t, ts.URL+"/v1/mesh/copy", nil); code != http.StatusNotFound {
		t.Errorf("get deleted = %d, want 404", code)
	}
}

// TestQueryParity locks the serving layer to the library: every
// endpoint's answer must be identical to the direct Network call on
// the same mesh.
func TestQueryParity(t *testing.T) {
	_, ts, direct := newTestServer(t)
	st := extmesh.DefaultStrategy()

	pairs := []struct{ s, d extmesh.Coord }{
		{extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 15, Y: 15}},
		{extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 7, Y: 7}},
		{extmesh.Coord{X: 2, Y: 9}, extmesh.Coord{X: 14, Y: 1}},
		{extmesh.Coord{X: 15, Y: 0}, extmesh.Coord{X: 0, Y: 15}},
	}
	for _, model := range []string{"blocks", "mcc"} {
		fm := extmesh.Blocks
		if model == "mcc" {
			fm = extmesh.MCC
		}
		for _, pr := range pairs {
			// route
			var rr wire.RouteResult
			code := post(t, ts.URL+"/v1/mesh/m/route",
				wire.Query{Src: pr.s, Dst: pr.d, Model: model}, &rr)
			wantPath, wantErr := direct.Route(pr.s, pr.d, fm)
			if wantErr != nil {
				if code != http.StatusUnprocessableEntity {
					t.Errorf("%v->%v %s: route = %d, want 422 (%v)", pr.s, pr.d, model, code, wantErr)
				}
			} else if code != http.StatusOK || !reflect.DeepEqual(rr.Path, wantPath) {
				t.Errorf("%v->%v %s: served path %v != direct %v", pr.s, pr.d, model, rr.Path, wantPath)
			}

			// safe
			var sr struct {
				Safe bool `json:"safe"`
			}
			post(t, ts.URL+"/v1/mesh/m/safe", wire.Query{Src: pr.s, Dst: pr.d, Model: model}, &sr)
			if sr.Safe != direct.Safe(pr.s, pr.d, fm) {
				t.Errorf("%v->%v %s: safe mismatch", pr.s, pr.d, model)
			}

			// ensure
			var er wire.Assurance
			post(t, ts.URL+"/v1/mesh/m/ensure", wire.Query{Src: pr.s, Dst: pr.d, Model: model}, &er)
			wantA := direct.Ensure(pr.s, pr.d, fm, st)
			if er.Verdict != wantA.Verdict.String() {
				t.Errorf("%v->%v %s: ensure verdict %q != %q", pr.s, pr.d, model, er.Verdict, wantA.Verdict)
			}

			// route-assured
			var ar wire.Assurance
			code = post(t, ts.URL+"/v1/mesh/m/route-assured",
				wire.Query{Src: pr.s, Dst: pr.d, Model: model}, &ar)
			wp, wa, werr := direct.RouteAssured(pr.s, pr.d, fm, st)
			if werr != nil {
				if code != http.StatusUnprocessableEntity {
					t.Errorf("%v->%v %s: route-assured = %d, want 422", pr.s, pr.d, model, code)
				}
			} else if !reflect.DeepEqual(ar.Path, wp) || ar.Verdict != wa.Verdict.String() {
				t.Errorf("%v->%v %s: assured mismatch %v/%s vs %v/%s",
					pr.s, pr.d, model, ar.Path, ar.Verdict, wp, wa.Verdict)
			}

			// has-minimal-path
			var hr struct {
				Exists bool `json:"exists"`
			}
			post(t, ts.URL+"/v1/mesh/m/has-minimal-path", wire.Query{Src: pr.s, Dst: pr.d}, &hr)
			if hr.Exists != direct.HasMinimalPath(pr.s, pr.d) {
				t.Errorf("%v->%v: existence mismatch", pr.s, pr.d)
			}
		}
	}
}

func TestBatchParity(t *testing.T) {
	_, ts, direct := newTestServer(t)
	src := extmesh.Coord{X: 0, Y: 0}
	var dests []extmesh.Coord
	var reqPairs []wire.Pair
	for y := 0; y < 16; y += 3 {
		for x := 1; x < 16; x += 4 {
			d := extmesh.Coord{X: x, Y: y}
			dests = append(dests, d)
			reqPairs = append(reqPairs, wire.Pair{Src: src, Dst: d})
		}
	}

	// route/batch against RouteMany.
	var rb struct {
		Results []wire.BatchRouteResult `json:"results"`
	}
	code := post(t, ts.URL+"/v1/mesh/m/route/batch",
		wire.RouteBatchRequest{Pairs: reqPairs}, &rb)
	if code != http.StatusOK || len(rb.Results) != len(reqPairs) {
		t.Fatalf("route/batch = %d with %d results", code, len(rb.Results))
	}
	pairs := make([]extmesh.Pair, len(reqPairs))
	for i, p := range reqPairs {
		pairs[i] = extmesh.Pair{Src: p.Src, Dst: p.Dst}
	}
	want := direct.RouteMany(pairs, extmesh.Blocks)
	for i := range want {
		if want[i].Err != nil {
			if rb.Results[i].Error == "" {
				t.Errorf("pair %d: served ok, direct err %v", i, want[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(rb.Results[i].Path, want[i].Path) {
			t.Errorf("pair %d: served %v != direct %v", i, rb.Results[i].Path, want[i].Path)
		}
	}

	// omit_paths keeps the hop counts.
	var rbLean struct {
		Results []wire.BatchRouteResult `json:"results"`
	}
	post(t, ts.URL+"/v1/mesh/m/route/batch",
		wire.RouteBatchRequest{Pairs: reqPairs, OmitPaths: true}, &rbLean)
	for i := range want {
		if want[i].Err == nil {
			if rbLean.Results[i].Path != nil || rbLean.Results[i].Hops != len(want[i].Path)-1 {
				t.Errorf("pair %d: lean result %+v, want hops %d and no path",
					i, rbLean.Results[i], len(want[i].Path)-1)
			}
		}
	}

	// has-minimal-path/batch against HasMinimalPathAll.
	var hb struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path/batch", wire.FanRequest{Src: src, Dests: dests}, &hb)
	if got, want := hb.Results, direct.HasMinimalPathAll(src, dests); !reflect.DeepEqual(got, want) {
		t.Errorf("existence batch %v != %v", got, want)
	}

	// ensure/batch against EnsureAll.
	var eb struct {
		Results []wire.Assurance `json:"results"`
	}
	post(t, ts.URL+"/v1/mesh/m/ensure/batch", wire.FanRequest{Src: src, Dests: dests}, &eb)
	wantA := direct.EnsureAll(src, dests, extmesh.Blocks, extmesh.DefaultStrategy())
	for i := range wantA {
		if eb.Results[i].Verdict != wantA[i].Verdict.String() {
			t.Errorf("dest %d: ensure %q != %q", i, eb.Results[i].Verdict, wantA[i].Verdict)
		}
	}

	// Oversized and empty batches are rejected.
	huge := make([]wire.Pair, MaxBatch+1)
	if code := post(t, ts.URL+"/v1/mesh/m/route/batch", wire.RouteBatchRequest{Pairs: huge}, nil); code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", code)
	}
	if code := post(t, ts.URL+"/v1/mesh/m/route/batch", wire.RouteBatchRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", code)
	}
}

func TestFaultAdminReroutesLiveTraffic(t *testing.T) {
	_, ts, _ := newTestServer(t)
	src, dst := extmesh.Coord{X: 0, Y: 8}, extmesh.Coord{X: 15, Y: 8}

	var hr struct {
		Exists bool `json:"exists"`
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path", wire.Query{Src: src, Dst: dst}, &hr)
	if !hr.Exists {
		t.Fatal("row path should exist before the wall")
	}

	// Build a vertical wall through the whole mesh except... everywhere:
	// after it, no monotone (or any) path from the west half remains.
	var wall []extmesh.Coord
	for y := 0; y < 16; y++ {
		wall = append(wall, extmesh.Coord{X: 8, Y: y})
	}
	var fr wire.FaultsResult
	code := post(t, ts.URL+"/v1/mesh/m/faults", wire.FaultsRequest{Fail: wall}, &fr)
	if code != http.StatusOK || fr.Applied != len(wall) {
		t.Fatalf("faults = %d %+v", code, fr)
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path", wire.Query{Src: src, Dst: dst}, &hr)
	if hr.Exists {
		t.Error("wall should cut the mesh")
	}

	// Recover the wall; traffic resumes.
	post(t, ts.URL+"/v1/mesh/m/faults", wire.FaultsRequest{Recover: wall}, &fr)
	if fr.Applied != len(wall) {
		t.Fatalf("recover applied %d, want %d", fr.Applied, len(wall))
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path", wire.Query{Src: src, Dst: dst}, &hr)
	if !hr.Exists {
		t.Error("recovered mesh should route again")
	}

	// Idempotent replay: recovering again skips.
	post(t, ts.URL+"/v1/mesh/m/faults", wire.FaultsRequest{Recover: wall[:3]}, &fr)
	if fr.Applied != 0 || fr.Skipped != 3 {
		t.Errorf("replayed recover = %+v, want 0 applied / 3 skipped", fr)
	}
}

// TestFaultSpecOnlyRejected posts a body that carries only the removed
// "spec" field (the JSON decoder ignores unknown fields). It must be a
// 400 that applies nothing, not a silent no-op.
func TestFaultSpecOnlyRejected(t *testing.T) {
	s, ts, _ := newTestServer(t)
	d := s.Meshes().Get("m")
	faults, version := d.FaultCount(), d.Version()
	code, body := postJSON(t, ts.URL+"/v1/mesh/m/faults", `{"spec":"fail@0:1,1;recover@1:1,1","cycles":10,"seed":3}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "nothing to apply: need fail or recover") {
		t.Errorf("spec-only faults = %d %s, want 400 nothing to apply", code, body)
	}
	if d.FaultCount() != faults || d.Version() != version {
		t.Errorf("spec-only request changed the mesh: %d faults v%d, want %d v%d",
			d.FaultCount(), d.Version(), faults, version)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// Warm the reach cache with repeated existence queries.
	q := wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 15, Y: 15}}
	for i := 0; i < 5; i++ {
		post(t, ts.URL+"/v1/mesh/m/has-minimal-path", q, nil)
	}
	var st wire.Stats
	if code := get(t, ts.URL+"/v1/mesh/m/stats", &st); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if st.Name != "m" || st.Width != 16 || st.Faults != len(testFaults) {
		t.Errorf("stats vitals = %+v", st)
	}
	if st.ReachMisses == 0 || st.ReachHits < 4 {
		t.Errorf("reach stats = %d hits / %d misses, want 1 miss + >=4 hits", st.ReachHits, st.ReachMisses)
	}
	if st.ReachHitRate <= 0.5 {
		t.Errorf("hit rate = %v, want > 0.5", st.ReachHitRate)
	}
}

func TestOpsEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var h struct {
		Status string `json:"status"`
	}
	if code := get(t, ts.URL+"/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz = %d %+v", code, h)
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path",
		wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"http_requests_total_has_minimal_path", "reach_cache_", "meshes_registered 1"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	var vars struct {
		Extmesh map[string]any `json:"extmesh"`
	}
	if code := get(t, ts.URL+"/debug/vars", &vars); code != http.StatusOK || len(vars.Extmesh) == 0 {
		t.Errorf("/debug/vars = %d, extmesh map %v", code, vars.Extmesh)
	}
}

func TestRequestIDsAssigned(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t)
	// Unknown mesh.
	if code := post(t, ts.URL+"/v1/mesh/ghost/route",
		wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown mesh = %d, want 404", code)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/mesh/m/route", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	// Unknown model, on every query endpoint: existence answers do not
	// depend on the model, but a bad one is still a bad request.
	for _, path := range []string{"/route", "/safe", "/ensure", "/route-assured", "/has-minimal-path"} {
		if code := post(t, ts.URL+"/v1/mesh/m"+path,
			wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}, Model: "cubes"}, nil); code != http.StatusBadRequest {
			t.Errorf("%s with bad model = %d, want 400", path, code)
		}
	}
	if code := post(t, ts.URL+"/v1/mesh/m/route/batch",
		wire.RouteBatchRequest{Pairs: []wire.Pair{{}}, Model: "cubes"}, nil); code != http.StatusBadRequest {
		t.Errorf("route batch with bad model = %d, want 400", code)
	}
	for _, path := range []string{"/ensure/batch", "/has-minimal-path/batch"} {
		if code := post(t, ts.URL+"/v1/mesh/m"+path,
			wire.FanRequest{Dests: []extmesh.Coord{{X: 1, Y: 1}}, Model: "cubes"}, nil); code != http.StatusBadRequest {
			t.Errorf("%s with bad model = %d, want 400", path, code)
		}
	}
	// Out-of-mesh endpoints route nowhere.
	if code := post(t, ts.URL+"/v1/mesh/m/route",
		wire.Query{Src: extmesh.Coord{X: -1, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}}, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("out-of-mesh route = %d, want 422", code)
	}
}

// TestAdmissionSheds saturates the execution slots and checks the
// gate's three outcomes: execute, queue-then-execute, and shed 429.
func TestAdmissionSheds(t *testing.T) {
	s := New(Options{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond})
	d, err := extmesh.NewDynamic(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Meshes().Create("m", d); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only execution slot directly (internal test hook).
	s.admit.slots <- struct{}{}

	// First request queues and then sheds after QueueWait.
	start := time.Now()
	code := post(t, ts.URL+"/v1/mesh/m/has-minimal-path",
		wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("queued request = %d, want 429", code)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Errorf("shed after %v, want to wait out the %v queue window", waited, 30*time.Millisecond)
	}

	// With the queue also full, excess requests shed immediately.
	s.admit.queue.Add(1) // simulate a waiter holding the queue slot
	start = time.Now()
	resp2, err := http.Post(ts.URL+"/v1/mesh/m/has-minimal-path", "application/json",
		strings.NewReader(`{"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request = %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	resp2.Body.Close()
	if waited := time.Since(start); waited > 25*time.Millisecond {
		t.Errorf("overflow shed took %v, want immediate", waited)
	}
	s.admit.queue.Add(-1)

	// Release the slot; traffic flows again and ops endpoints were
	// never gated.
	<-s.admit.slots
	if code := post(t, ts.URL+"/v1/mesh/m/has-minimal-path",
		wire.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 1, Y: 1}}, nil); code != http.StatusOK {
		t.Errorf("after release = %d, want 200", code)
	}
	shed := s.metrics.Counter("http_shed_total").Value()
	if shed < 2 {
		t.Errorf("http_shed_total = %d, want >= 2", shed)
	}
}

// TestHealthBypassesAdmission pins the ops exemption: a saturated
// server still answers health checks.
func TestHealthBypassesAdmission(t *testing.T) {
	s := New(Options{MaxInFlight: 1, MaxQueue: 1, QueueWait: 10 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.admit.slots <- struct{}{} // saturate
	defer func() { <-s.admit.slots }()
	if code := get(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz under saturation = %d, want 200", code)
	}
	if code := get(t, ts.URL+"/metrics", nil); code != http.StatusOK {
		t.Errorf("metrics under saturation = %d, want 200", code)
	}
}

// TestGracefulDrain starts a real server, parks a slow request in
// flight, trips the shutdown context, and requires (a) the in-flight
// request to complete with 200 and (b) new connections to be refused
// after the drain.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprintln(w, "done")
	})
	srv := &http.Server{Handler: mux}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, srv, l, 5*time.Second) }()

	var wg sync.WaitGroup
	wg.Add(1)
	var code int
	var reqErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			reqErr = err
			return
		}
		code = resp.StatusCode
		resp.Body.Close()
	}()

	<-started // request is in flight
	cancel()  // SIGTERM equivalent
	time.Sleep(20 * time.Millisecond)
	close(release) // let the in-flight request finish

	wg.Wait()
	if reqErr != nil || code != http.StatusOK {
		t.Fatalf("in-flight request = %d, %v; want 200 during drain", code, reqErr)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener is closed: new requests fail to connect.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestServedRouteMatchesAfterMutation ties it together: admin
// mutation, then parity on the post-mutation snapshot.
func TestServedRouteMatchesAfterMutation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	extra := []extmesh.Coord{{X: 8, Y: 8}, {X: 8, Y: 9}, {X: 9, Y: 8}}
	var fr wire.FaultsResult
	if code := post(t, ts.URL+"/v1/mesh/m/faults", wire.FaultsRequest{Fail: extra}, &fr); code != http.StatusOK {
		t.Fatalf("faults = %d", code)
	}
	direct, err := extmesh.New(16, 16, append(append([]extmesh.Coord{}, testFaults...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 15, Y: 15}
	var rr wire.RouteResult
	code := post(t, ts.URL+"/v1/mesh/m/route", wire.Query{Src: src, Dst: dst}, &rr)
	wantPath, wantErr := direct.Route(src, dst, extmesh.Blocks)
	if wantErr != nil {
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("route = %d, want 422", code)
		}
	} else if !reflect.DeepEqual(rr.Path, wantPath) {
		t.Errorf("post-mutation path %v != direct %v", rr.Path, wantPath)
	}
}
