package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/metrics"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// startBinary runs the server's binary listener on a loopback port and
// returns its address; shutdown (with drain) happens in cleanup.
func startBinary(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ctx, l, 2*time.Second) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
	})
	return l.Addr().String()
}

func newBinaryClient(t *testing.T, addr string) *meshclient.BinaryClient {
	t.Helper()
	bc, err := meshclient.NewBinary(meshclient.BinaryOptions{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return bc
}

// parityPairs is the query matrix the parity suites run: axis pairs,
// blocked endpoints, cross-fault diagonals, out-of-mesh coordinates.
func parityPairs() [][2]extmesh.Coord {
	return [][2]extmesh.Coord{
		{{X: 0, Y: 0}, {X: 15, Y: 15}},
		{{X: 0, Y: 0}, {X: 0, Y: 0}},
		{{X: 2, Y: 3}, {X: 9, Y: 8}},
		{{X: 15, Y: 0}, {X: 0, Y: 15}},
		{{X: 4, Y: 4}, {X: 7, Y: 7}},   // diagonal through the fault block
		{{X: 5, Y: 5}, {X: 9, Y: 9}},   // faulty source
		{{X: 1, Y: 1}, {X: 6, Y: 5}},   // faulty destination
		{{X: 12, Y: 13}, {X: 1, Y: 2}}, // negative-direction quadrant
		{{X: -1, Y: 3}, {X: 4, Y: 4}},  // out of mesh
		{{X: 3, Y: 3}, {X: 99, Y: 2}},  // out of mesh
	}
}

// TestBinaryParitySingle pins every single-pair binary op to the JSON
// endpoint and the direct library answer for the same query.
func TestBinaryParitySingle(t *testing.T) {
	s, ts, direct := newTestServer(t)
	bc := newBinaryClient(t, startBinary(t, s))
	ctx := context.Background()

	for _, model := range []string{"blocks", "mcc"} {
		fm := extmesh.Blocks
		if model == "mcc" {
			fm = extmesh.MCC
		}
		for i, pair := range parityPairs() {
			src, dst := pair[0], pair[1]
			q := meshclient.Query{Src: src, Dst: dst, Model: model}

			// Route: identical paths or identical failure status.
			binRoute, binErr := bc.Route(ctx, "m", q)
			var jsonRoute wire.RouteResult
			jsonCode := post(t, ts.URL+"/v1/mesh/m/route", wire.Query{Src: src, Dst: dst, Model: model}, &jsonRoute)
			libPath, libErr := direct.Route(src, dst, fm)
			if (binErr != nil) != (libErr != nil) || (jsonCode != http.StatusOK) != (libErr != nil) {
				t.Fatalf("%s pair %d: route errors diverge: bin=%v json=%d lib=%v", model, i, binErr, jsonCode, libErr)
			}
			if libErr == nil {
				if binRoute.Hops != jsonRoute.Hops || binRoute.Hops != len(libPath)-1 {
					t.Fatalf("%s pair %d: hops bin=%d json=%d lib=%d", model, i, binRoute.Hops, jsonRoute.Hops, len(libPath)-1)
				}
				if !reflect.DeepEqual(binRoute.Path, extmesh.Path(jsonRoute.Path)) || !reflect.DeepEqual(binRoute.Path, libPath) {
					t.Fatalf("%s pair %d: paths diverge:\nbin  %v\njson %v\nlib  %v", model, i, binRoute.Path, jsonRoute.Path, libPath)
				}
			} else {
				var apiErr *meshclient.APIError
				if !errors.As(binErr, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || jsonCode != http.StatusUnprocessableEntity {
					t.Fatalf("%s pair %d: route failure statuses: bin=%v json=%d", model, i, binErr, jsonCode)
				}
			}

			// Safe.
			binSafe, err := bc.Safe(ctx, "m", q)
			if err != nil {
				t.Fatalf("%s pair %d: binary safe: %v", model, i, err)
			}
			var jsonSafe struct {
				Safe bool `json:"safe"`
			}
			post(t, ts.URL+"/v1/mesh/m/safe", wire.Query{Src: src, Dst: dst, Model: model}, &jsonSafe)
			if libSafe := direct.Safe(src, dst, fm); binSafe != libSafe || jsonSafe.Safe != libSafe {
				t.Fatalf("%s pair %d: safe bin=%v json=%v lib=%v", model, i, binSafe, jsonSafe.Safe, libSafe)
			}

			// Ensure: verdict and witness waypoints.
			binEnsure, err := bc.Ensure(ctx, "m", q)
			if err != nil {
				t.Fatalf("%s pair %d: binary ensure: %v", model, i, err)
			}
			var jsonEnsure wire.Assurance
			post(t, ts.URL+"/v1/mesh/m/ensure", wire.Query{Src: src, Dst: dst, Model: model}, &jsonEnsure)
			libAssure := direct.Ensure(src, dst, fm, extmesh.DefaultStrategy())
			if binEnsure.Verdict != libAssure.Verdict.String() || jsonEnsure.Verdict != libAssure.Verdict.String() {
				t.Fatalf("%s pair %d: verdict bin=%q json=%q lib=%q", model, i, binEnsure.Verdict, jsonEnsure.Verdict, libAssure.Verdict)
			}
			if !coordsEqual(binEnsure.Via, libAssure.Via()) || !coordsEqual(jsonEnsure.Via, libAssure.Via()) {
				t.Fatalf("%s pair %d: via bin=%v json=%v lib=%v", model, i, binEnsure.Via, jsonEnsure.Via, libAssure.Via())
			}

			// HasMinimalPath (model-independent).
			binHMP, err := bc.HasMinimalPath(ctx, "m", meshclient.Query{Src: src, Dst: dst})
			if err != nil {
				t.Fatalf("pair %d: binary has-minimal-path: %v", i, err)
			}
			var jsonHMP struct {
				Exists bool `json:"exists"`
			}
			post(t, ts.URL+"/v1/mesh/m/has-minimal-path", wire.Query{Src: src, Dst: dst}, &jsonHMP)
			if libHMP := direct.HasMinimalPath(src, dst); binHMP != libHMP || jsonHMP.Exists != libHMP {
				t.Fatalf("pair %d: exists bin=%v json=%v lib=%v", i, binHMP, jsonHMP.Exists, libHMP)
			}
		}
	}
}

// coordsEqual treats nil and empty as the same waypoint list (JSON
// omitempty drops empty lists).
func coordsEqual(a, b []extmesh.Coord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBinaryParityBatch pins the three batch ops across transports.
func TestBinaryParityBatch(t *testing.T) {
	s, ts, direct := newTestServer(t)
	bc := newBinaryClient(t, startBinary(t, s))
	ctx := context.Background()

	var pairs []meshclient.Pair
	var libPairs []extmesh.Pair
	var dests []extmesh.Coord
	for y := 0; y < 16; y += 3 {
		for x := 0; x < 16; x += 3 {
			c := extmesh.Coord{X: x, Y: y}
			pairs = append(pairs, meshclient.Pair{Src: extmesh.Coord{X: 0, Y: 0}, Dst: c})
			libPairs = append(libPairs, extmesh.Pair{Src: extmesh.Coord{X: 0, Y: 0}, Dst: c})
			dests = append(dests, c)
		}
	}
	src := extmesh.Coord{X: 0, Y: 0}

	// Route batch, with and without paths.
	for _, omit := range []bool{false, true} {
		binResults, err := bc.RouteBatch(ctx, "m", pairs, "blocks", omit)
		if err != nil {
			t.Fatal(err)
		}
		var jsonOut struct {
			Results []wire.BatchRouteResult `json:"results"`
		}
		post(t, ts.URL+"/v1/mesh/m/route/batch", wire.RouteBatchRequest{
			Pairs: pairsJSON(pairs), Model: "blocks", OmitPaths: omit,
		}, &jsonOut)
		libResults := direct.RouteMany(libPairs, extmesh.Blocks)
		if len(binResults) != len(libResults) || len(jsonOut.Results) != len(libResults) {
			t.Fatalf("omit=%v: lengths bin=%d json=%d lib=%d", omit, len(binResults), len(jsonOut.Results), len(libResults))
		}
		for i := range libResults {
			libErr := libResults[i].Err
			if (binResults[i].Error != "") != (libErr != nil) || (jsonOut.Results[i].Error != "") != (libErr != nil) {
				t.Fatalf("omit=%v pair %d: error presence diverges", omit, i)
			}
			if libErr != nil {
				continue
			}
			wantHops := len(libResults[i].Path) - 1
			if binResults[i].Hops != wantHops || jsonOut.Results[i].Hops != wantHops {
				t.Fatalf("omit=%v pair %d: hops bin=%d json=%d lib=%d", omit, i, binResults[i].Hops, jsonOut.Results[i].Hops, wantHops)
			}
			wantPath := libResults[i].Path
			if omit {
				wantPath = nil
			}
			if !reflect.DeepEqual(binResults[i].Path, wantPath) || !reflect.DeepEqual(extmesh.Path(jsonOut.Results[i].Path), wantPath) {
				t.Fatalf("omit=%v pair %d: paths diverge", omit, i)
			}
		}
	}

	// Has-minimal-path batch: one sweep, bit-packed on the wire.
	binBits, err := bc.HasMinimalPathBatch(ctx, "m", src, dests)
	if err != nil {
		t.Fatal(err)
	}
	var jsonBits struct {
		Results []bool `json:"results"`
	}
	post(t, ts.URL+"/v1/mesh/m/has-minimal-path/batch", wire.FanRequest{Src: src, Dests: dests}, &jsonBits)
	libBits := direct.HasMinimalPathAll(src, dests)
	if !reflect.DeepEqual(binBits, libBits) || !reflect.DeepEqual(jsonBits.Results, libBits) {
		t.Fatalf("existence batches diverge:\nbin  %v\njson %v\nlib  %v", binBits, jsonBits.Results, libBits)
	}

	// Ensure batch.
	binEnsures, err := bc.EnsureBatch(ctx, "m", src, dests, "blocks")
	if err != nil {
		t.Fatal(err)
	}
	var jsonEnsures struct {
		Results []wire.Assurance `json:"results"`
	}
	post(t, ts.URL+"/v1/mesh/m/ensure/batch", wire.FanRequest{Src: src, Dests: dests, Model: "blocks"}, &jsonEnsures)
	libEnsures := direct.EnsureAll(src, dests, extmesh.Blocks, extmesh.DefaultStrategy())
	for i := range libEnsures {
		want := libEnsures[i].Verdict.String()
		if binEnsures[i].Verdict != want || jsonEnsures.Results[i].Verdict != want {
			t.Fatalf("dest %d: verdict bin=%q json=%q lib=%q", i, binEnsures[i].Verdict, jsonEnsures.Results[i].Verdict, want)
		}
		if !coordsEqual(binEnsures[i].Via, libEnsures[i].Via()) {
			t.Fatalf("dest %d: via bin=%v lib=%v", i, binEnsures[i].Via, libEnsures[i].Via())
		}
	}
}

func pairsJSON(pairs []meshclient.Pair) []wire.Pair {
	out := make([]wire.Pair, len(pairs))
	for i, p := range pairs {
		out[i] = wire.Pair{Src: p.Src, Dst: p.Dst}
	}
	return out
}

// TestBinaryErrors covers the protocol's failure surface: unknown mesh,
// empty and oversized batches, strategy rejection, unknown ops.
func TestBinaryErrors(t *testing.T) {
	s, _, _ := newTestServer(t)
	bc := newBinaryClient(t, startBinary(t, s))
	ctx := context.Background()

	wantStatus := func(err error, status int) {
		t.Helper()
		var apiErr *meshclient.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("error = %v, want API status %d", err, status)
		}
	}
	_, err := bc.Route(ctx, "nope", meshclient.Query{Src: extmesh.Coord{}, Dst: extmesh.Coord{X: 1, Y: 1}})
	wantStatus(err, http.StatusNotFound)

	_, err = bc.HasMinimalPathBatch(ctx, "m", extmesh.Coord{}, nil)
	wantStatus(err, http.StatusBadRequest)

	big := make([]extmesh.Coord, MaxBatch+1)
	_, err = bc.HasMinimalPathBatch(ctx, "m", extmesh.Coord{}, big)
	wantStatus(err, http.StatusBadRequest)

	strat := extmesh.DefaultStrategy()
	if _, err := bc.Ensure(ctx, "m", meshclient.Query{Strategy: &strat}); err == nil {
		t.Fatal("explicit strategy must be rejected client-side")
	}
	if _, err := bc.Route(ctx, "m", meshclient.Query{Model: "bogus"}); err == nil {
		t.Fatal("unknown model must be rejected client-side")
	}
}

// TestBinaryPipelining writes a burst of frames before reading any
// response and checks the answers come back complete and in order.
func TestBinaryPipelining(t *testing.T) {
	s, _, direct := newTestServer(t)
	addr := startBinary(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const depth = 64
	var burst []byte
	var body []byte
	for i := 0; i < depth; i++ {
		dst := extmesh.Coord{X: i % 16, Y: (i * 7) % 16}
		body = wire.AppendRequest(body[:0], &wire.Request{
			ID: uint32(i + 1), Op: wire.OpHasMinimalPath, Mesh: "m",
			Src: extmesh.Coord{X: 0, Y: 0}, Dst: dst,
		})
		var prefix [4]byte
		binary.LittleEndian.PutUint32(prefix[:], uint32(len(body)))
		burst = append(burst, prefix[:]...)
		burst = append(burst, body...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		frame, err := wire.ReadFrame(conn, wire.MaxResponseFrame, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := wire.DecodeResponse(frame, wire.OpHasMinimalPath)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if resp.ID != uint32(i+1) {
			t.Fatalf("response %d has id %d: pipelined order broken", i, resp.ID)
		}
		dst := extmesh.Coord{X: i % 16, Y: (i * 7) % 16}
		if want := direct.HasMinimalPath(extmesh.Coord{X: 0, Y: 0}, dst); resp.Bool != want {
			t.Fatalf("response %d: exists=%v, lib says %v", i, resp.Bool, want)
		}
	}
}

// TestBinaryMalformedFrames checks stream hygiene: a malformed request
// body still gets a response frame (the stream stays synchronized),
// while an oversized length prefix closes the connection.
func TestBinaryMalformedFrames(t *testing.T) {
	s, _, _ := newTestServer(t)
	addr := startBinary(t, s)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Truncated body: 4 id bytes, then nothing.
	if err := wire.WriteFrame(conn, []byte{9, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(conn, wire.MaxResponseFrame, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(frame, wire.OpRoute)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 9 || resp.Status != wire.StatusBadRequest {
		t.Fatalf("truncated body answered id=%d status=%d", resp.ID, resp.Status)
	}

	// The connection is still usable after the error response.
	body := wire.AppendRequest(nil, &wire.Request{
		ID: 10, Op: wire.OpSafe, Mesh: "m", Src: extmesh.Coord{}, Dst: extmesh.Coord{X: 3, Y: 3},
	})
	if err := wire.WriteFrame(conn, body); err != nil {
		t.Fatal(err)
	}
	if frame, err = wire.ReadFrame(conn, wire.MaxResponseFrame, nil); err != nil {
		t.Fatal(err)
	}
	if resp, err = wire.DecodeResponse(frame, wire.OpSafe); err != nil || resp.ID != 10 || resp.Status != wire.StatusOK {
		t.Fatalf("post-error request: resp=%+v err=%v", resp, err)
	}

	// Oversized length prefix: the server must drop the connection.
	var huge [4]byte
	binary.LittleEndian.PutUint32(huge[:], wire.MaxRequestFrame+1)
	if _, err := conn.Write(huge[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn, wire.MaxResponseFrame, nil); err == nil {
		t.Fatal("oversized frame did not close the connection")
	}
}

// TestBinaryReconnect kills the client's connection server-side and
// checks the next call transparently redials.
func TestBinaryReconnect(t *testing.T) {
	s, _, direct := newTestServer(t)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ctx, l, time.Second) }()
	bc := newBinaryClient(t, l.Addr().String())

	q := meshclient.Query{Src: extmesh.Coord{X: 0, Y: 0}, Dst: extmesh.Coord{X: 9, Y: 9}}
	first, err := bc.Route(context.Background(), "m", q)
	if err != nil {
		t.Fatal(err)
	}

	// Bounce the whole binary listener: established connections die.
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l2, err := net.Listen("tcp", l.Addr().String())
	if err != nil {
		t.Skipf("cannot rebind %v: %v", l.Addr(), err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- s.ServeBinary(ctx2, l2, time.Second) }()
	t.Cleanup(func() {
		cancel2()
		<-done2
	})

	second, err := bc.Route(context.Background(), "m", q)
	if err != nil {
		t.Fatalf("post-restart route did not reconnect: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("answers diverge across reconnect: %+v vs %+v", first, second)
	}
	if want, _ := direct.Route(q.Src, q.Dst, extmesh.Blocks); !reflect.DeepEqual(second.Path, want) {
		t.Fatalf("post-reconnect path %v, lib %v", second.Path, want)
	}
}

// FuzzBinaryFrames feeds arbitrary bytes to the frame decoder and the
// full server frame handler. Nothing may panic; every handled frame
// must produce a decodable response header; hostile length fields must
// not balloon allocations (the decoder validates counts against the
// bytes actually present).
func FuzzBinaryFrames(f *testing.F) {
	seed := func(r *wire.Request) []byte { return wire.AppendRequest(nil, r) }
	f.Add(seed(&wire.Request{ID: 1, Op: wire.OpRoute, Mesh: "m", Src: extmesh.Coord{}, Dst: extmesh.Coord{X: 7, Y: 7}}))
	f.Add(seed(&wire.Request{ID: 2, Op: wire.OpHasMinimalPath, Mesh: "m", Dst: extmesh.Coord{X: 3, Y: 9}}))
	f.Add(seed(&wire.Request{ID: 3, Op: wire.OpSafe, Flags: wire.FlagMCC, Mesh: "m", Dst: extmesh.Coord{X: 2, Y: 2}}))
	f.Add(seed(&wire.Request{ID: 4, Op: wire.OpEnsure, Mesh: "m", Dst: extmesh.Coord{X: 5, Y: 1}}))
	f.Add(seed(&wire.Request{ID: 5, Op: wire.OpRouteBatch, Flags: wire.FlagOmitPaths, Mesh: "m",
		Pairs: []extmesh.Coord{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 0}, {X: 0, Y: 2}}}))
	f.Add(seed(&wire.Request{ID: 6, Op: wire.OpHasMinimalPathBatch, Mesh: "m",
		Dests: []extmesh.Coord{{X: 1, Y: 1}, {X: 4, Y: 4}}}))
	f.Add(seed(&wire.Request{ID: 7, Op: wire.OpEnsureBatch, Mesh: "m",
		Dests: []extmesh.Coord{{X: 1, Y: 1}}}))
	// Adversarial: truncations, absurd counts, huge name length, unknown
	// op, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 99, 0, 1, 'm'})
	f.Add([]byte{1, 0, 0, 0, wire.OpRouteBatch, 0, 1, 'm', 0xff, 0xff})
	f.Add([]byte{1, 0, 0, 0, wire.OpHasMinimalPathBatch, 0, 1, 'm', 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	f.Add(append(seed(&wire.Request{ID: 8, Op: wire.OpSafe, Mesh: "m"}), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > wire.MaxRequestFrame {
			t.Skip() // the framing layer rejects these before decode
		}
		// The decoder alone must be total on arbitrary bytes.
		req, _ := wire.DecodeRequest(body)

		// And the full handler must answer every frame with a response
		// the client-side decoder accepts.
		s := New(Options{Metrics: metrics.NewRegistry()})
		d, err := extmesh.NewDynamic(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Meshes().Create("m", d); err != nil {
			t.Fatal(err)
		}
		b := newBinaryServer(s)
		resp := b.handleFrame(nil, body)
		if len(resp) < 5 {
			t.Fatalf("response frame of %d bytes has no header", len(resp))
		}
		status := resp[4]
		if status > wire.StatusSaturated {
			t.Fatalf("implausible status %d", status)
		}
		if status == wire.StatusInternal {
			t.Fatalf("handler blamed itself for client bytes %q", body)
		}
		if req != nil && status == wire.StatusOK {
			if _, err := wire.DecodeResponse(resp, req.Op); err != nil {
				t.Fatalf("OK response for op %d does not decode: %v", req.Op, err)
			}
		}
	})
}
