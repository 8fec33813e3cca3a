package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/metrics"
	"extmesh/internal/wire"
)

// newPlaneServer returns a server with the 16x16 test mesh "m" and its
// binary codec, both driven in-process with no socket.
func newPlaneServer(t testing.TB) (*Server, *binaryServer) {
	t.Helper()
	s := New(Options{Metrics: metrics.NewRegistry()})
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
	return s, newBinaryServer(s)
}

// serveJSON answers one JSON request through the full handler chain.
func serveJSON(h http.Handler, path string, body any) *httptest.ResponseRecorder {
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return serveRaw(h, path, string(raw))
}

func serveRaw(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

var opPaths = map[uint8]string{
	wire.OpRoute: "/route", wire.OpHasMinimalPath: "/has-minimal-path", wire.OpSafe: "/safe",
	wire.OpEnsure: "/ensure", wire.OpRouteBatch: "/route/batch",
	wire.OpHasMinimalPathBatch: "/has-minimal-path/batch", wire.OpEnsureBatch: "/ensure/batch",
}

// binaryAsJSON converts a decoded OK binary response to the JSON
// plane's answer for the same op.
func binaryAsJSON(op uint8, r *wire.Response) any {
	assurance := func(e wire.EnsureResult) wire.Assurance {
		return wire.Assurance{Verdict: extmesh.Verdict(e.Verdict).String(), Via: e.Via, Hops: -1}
	}
	switch op {
	case wire.OpRoute:
		return wire.RouteResult{Hops: r.Hops, Path: r.Path}
	case wire.OpSafe:
		return wire.SafeResult{Safe: r.Bool}
	case wire.OpHasMinimalPath:
		return wire.ExistsResult{Exists: r.Bool}
	case wire.OpEnsure:
		return assurance(r.Ensure)
	case wire.OpRouteBatch:
		out := wire.Results[wire.BatchRouteResult]{Results: []wire.BatchRouteResult{}}
		for _, it := range r.Routes {
			out.Results = append(out.Results, wire.BatchRouteResult{Hops: it.Hops, Path: it.Path, Error: it.Err})
		}
		return out
	case wire.OpHasMinimalPathBatch:
		return wire.Results[bool]{Results: r.Bits}
	}
	out := wire.Results[wire.Assurance]{Results: []wire.Assurance{}}
	for _, e := range r.Ensures {
		out.Results = append(out.Results, assurance(e))
	}
	return out
}

// canonical re-encodes a JSON body so equal answers compare equal
// byte for byte (nil and empty lists, key order, trailing newline).
func canonical(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	out, _ := json.Marshal(v)
	return string(out)
}

// FuzzPlaneParity sends each random query to both planes and requires
// the same status and an equal answer, error messages included: the
// planes are two codecs over one core, so any difference is a codec
// bug.
func FuzzPlaneParity(f *testing.F) {
	for op := uint8(wire.OpRoute); op <= wire.OpEnsureBatch; op++ {
		f.Add(op, int16(0), int16(0), int16(15), int16(15), uint16(3), uint8(0), false, false)
		f.Add(op, int16(4), int16(4), int16(7), int16(7), uint16(1), uint8(2), true, false)
		f.Add(op, int16(-1), int16(3), int16(99), int16(2), uint16(0), uint8(1), false, false)
		f.Add(op, int16(12), int16(13), int16(1), int16(2), uint16(4097), uint8(0), true, false)
		f.Add(op, int16(2), int16(3), int16(9), int16(8), uint16(2), uint8(0), false, true)
		f.Add(op, int16(1), int16(1), int16(14), int16(14), uint16(64), uint8(0), true, false)
	}
	f.Add(uint8(wire.OpRouteBatch), int16(1), int16(1), int16(6), int16(5), uint16(4096), uint8(1), false, false)
	f.Add(uint8(wire.OpHasMinimalPathBatch), int16(5), int16(5), int16(0), int16(0), uint16(64), uint8(2), false, false)

	s, b := newPlaneServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, op uint8, sx, sy, dx, dy int16, n uint16, model uint8, omit, ghost bool) {
		op = op%wire.OpEnsureBatch + 1
		count := int(n) % (MaxBatch + 2)
		src, dst := extmesh.Coord{X: int(sx), Y: int(sy)}, extmesh.Coord{X: int(dx), Y: int(dy)}
		// Batch members walk the mesh and a margin around it from dst.
		member := func(i int) extmesh.Coord {
			return extmesh.Coord{X: (int(dx)+7*i)%20 - 2, Y: (int(dy)+3*i)%20 - 2}
		}
		req := wire.Request{ID: 9, Op: op, Mesh: "m", Src: src, Dst: dst}
		modelName := [...]string{"", "blocks", "mcc"}[model%3]
		if modelName == "mcc" {
			req.Flags |= wire.FlagMCC
		}
		if omit {
			req.Flags |= wire.FlagOmitPaths
		}
		if ghost {
			req.Mesh = "ghost"
		}

		var body any
		switch op {
		case wire.OpRouteBatch:
			pairs := make([]wire.Pair, count)
			for i := range pairs {
				pairs[i] = wire.Pair{Src: member(2 * i), Dst: member(2*i + 1)}
				req.Pairs = append(req.Pairs, pairs[i].Src, pairs[i].Dst)
			}
			body = wire.RouteBatchRequest{Pairs: pairs, Model: modelName, OmitPaths: omit}
		case wire.OpHasMinimalPathBatch, wire.OpEnsureBatch:
			req.Dests = make([]extmesh.Coord, count)
			for i := range req.Dests {
				req.Dests[i] = member(i)
			}
			body = wire.FanRequest{Src: src, Dests: req.Dests, Model: modelName}
		default:
			body = wire.Query{Src: src, Dst: dst, Model: modelName, OmitPath: omit}
		}

		rec := serveJSON(h, "/v1/mesh/"+req.Mesh+opPaths[op], body)
		resp, err := wire.DecodeResponse(b.handleFrame(nil, wire.AppendRequest(nil, &req)), op)
		if err != nil {
			t.Fatalf("op %d: binary response does not decode: %v", op, err)
		}
		if got := wire.HTTPStatus(resp.Status); got != rec.Code {
			t.Fatalf("op %d: binary status %d (HTTP %d), JSON %d: %s", op, resp.Status, got, rec.Code, rec.Body)
		}
		if resp.Status != wire.StatusOK {
			var e wire.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != resp.Err {
				t.Fatalf("op %d: binary error %q, JSON %s", op, resp.Err, rec.Body)
			}
			return
		}
		fromBinary, _ := json.Marshal(binaryAsJSON(op, resp))
		if got, want := canonical(t, fromBinary), canonical(t, rec.Body.Bytes()); got != want {
			t.Fatalf("op %d answers differ:\n binary %s\n json   %s", op, got, want)
		}
	})
}

// TestQueryAllocs pins the warm allocation counts of the two hottest
// served paths at what they were before the planes shared a core: a
// binary RouteBatch frame allocates only the decoded request and its
// pair list, and a JSON single route (counting the test's own request
// and recorder) 39 times. The batch stays under the library's
// serial-fan-out limit, so the count does not depend on GOMAXPROCS.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, b := newPlaneServer(t)
	var pairs []extmesh.Coord
	for i := 0; i < 12; i++ {
		pairs = append(pairs, extmesh.Coord{X: i, Y: 0}, extmesh.Coord{X: 15, Y: 15 - i})
	}
	for _, flags := range []uint8{0, wire.FlagOmitPaths} {
		body := wire.AppendRequest(nil, &wire.Request{ID: 1, Op: wire.OpRouteBatch, Flags: flags, Mesh: "m", Pairs: pairs})
		buf := b.handleFrame(nil, body)
		if buf[4] != wire.StatusOK {
			t.Fatalf("route batch status %d", buf[4])
		}
		if avg := testing.AllocsPerRun(200, func() { buf = b.handleFrame(buf[:0], body) }); avg > 2 {
			t.Errorf("warm binary RouteBatch frame (flags %d) allocates %.0f times, want <= 2", flags, avg)
		}
	}

	h := s.Handler()
	route := func() {
		if rec := serveRaw(h, "/v1/mesh/m/route", `{"src":{"X":0,"Y":0},"dst":{"X":15,"Y":15}}`); rec.Code != http.StatusOK {
			t.Fatalf("route status %d: %s", rec.Code, rec.Body)
		}
	}
	// Request IDs below 100 format without allocating; warm past them.
	for i := 0; i < 100; i++ {
		route()
	}
	if avg := testing.AllocsPerRun(200, route); avg > 39 {
		t.Errorf("warm JSON route allocates %.0f times, want <= 39", avg)
	}
}

// TestPivotLevelsBounded posts a strategy whose pivot recursion would
// run for minutes and eat gigabytes; the core must refuse it with 400
// before any pivot is generated, on every endpoint that takes a
// strategy, while the bound itself is still served.
func TestPivotLevelsBounded(t *testing.T) {
	s, _ := newPlaneServer(t)
	h := s.Handler()
	huge := extmesh.Strategy{UseExtension3: true, PivotLevels: 100000}
	atBound := extmesh.Strategy{UseExtension3: true, PivotLevels: MaxPivotLevels}
	src, dst := extmesh.Coord{X: 0, Y: 0}, extmesh.Coord{X: 15, Y: 15}
	for _, c := range []struct {
		path string
		body func(st *extmesh.Strategy) any
	}{
		{"/ensure", func(st *extmesh.Strategy) any { return wire.Query{Src: src, Dst: dst, Strategy: st} }},
		{"/route-assured", func(st *extmesh.Strategy) any { return wire.Query{Src: src, Dst: dst, Strategy: st} }},
		{"/ensure/batch", func(st *extmesh.Strategy) any {
			return wire.FanRequest{Src: src, Dests: []extmesh.Coord{dst, {X: 9, Y: 3}}, Strategy: st}
		}},
	} {
		start := time.Now()
		rec := serveJSON(h, "/v1/mesh/m"+c.path, c.body(&huge))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "PivotLevels") {
			t.Errorf("%s with PivotLevels %d = %d %s, want 400", c.path, huge.PivotLevels, rec.Code, rec.Body)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s took %v to refuse", c.path, d)
		}
		if rec := serveJSON(h, "/v1/mesh/m"+c.path, c.body(&atBound)); rec.Code != http.StatusOK {
			t.Errorf("%s with PivotLevels %d = %d %s, want 200", c.path, MaxPivotLevels, rec.Code, rec.Body)
		}
	}
}
