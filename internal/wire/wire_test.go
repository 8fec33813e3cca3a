package wire

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"extmesh"
	"extmesh/internal/mesh"
)

// TestRequestRoundTrip encodes one request per op and checks the
// decoder reproduces it field for field.
func TestRequestRoundTrip(t *testing.T) {
	src, dst := mesh.Coord{X: -3, Y: 7}, mesh.Coord{X: 1 << 20, Y: -(1 << 30)}
	coords := []mesh.Coord{{X: 0, Y: 0}, {X: 5, Y: 9}, {X: -1, Y: 2}, {X: 3, Y: 3}}
	reqs := []Request{
		{ID: 1, Op: OpRoute, Flags: FlagOmitPaths | FlagMCC, Mesh: "m", Src: src, Dst: dst},
		{ID: 2, Op: OpHasMinimalPath, Mesh: "mesh-2", Src: src, Dst: dst},
		{ID: 3, Op: OpSafe, Flags: FlagMCC, Mesh: "m", Src: dst, Dst: src},
		{ID: 4, Op: OpEnsure, Mesh: strings.Repeat("x", MaxName), Src: src, Dst: dst},
		{ID: 5, Op: OpRouteBatch, Flags: FlagOmitPaths, Mesh: "m", Pairs: coords},
		{ID: 6, Op: OpHasMinimalPathBatch, Mesh: "m", Src: src, Dests: coords},
		{ID: 7, Op: OpEnsureBatch, Flags: FlagMCC, Mesh: "m", Src: src, Dests: coords[:1]},
		{ID: 1<<32 - 1, Op: OpRouteBatch, Mesh: "m"},
	}
	for _, want := range reqs {
		got, err := DecodeRequest(AppendRequest(nil, &want))
		if err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("op %d round trip:\n got  %+v\n want %+v", want.Op, *got, want)
		}
	}
}

// TestResponseRoundTrip encodes an OK response for every op with the
// encoders the server uses, plus an error response for every op, and
// checks DecodeResponse reads back exactly what was written.
func TestResponseRoundTrip(t *testing.T) {
	path := []mesh.Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}}
	via := []mesh.Coord{{X: 4, Y: -2}}
	bits := []bool{true, false, false, true, true, false, true, true, false}
	cases := []struct {
		op   uint8
		body func(b []byte) []byte
		want Response
	}{
		{OpRoute, func(b []byte) []byte { return AppendRoute(b, path, false) },
			Response{Hops: 2, Path: path}},
		{OpRoute, func(b []byte) []byte { return AppendRoute(b, path, true) },
			Response{Hops: 2}},
		{OpHasMinimalPath, func(b []byte) []byte { return append(b, 1) },
			Response{Bool: true}},
		{OpSafe, func(b []byte) []byte { return append(b, 0) },
			Response{}},
		{OpEnsure, func(b []byte) []byte { return AppendEnsure(b, 2, via) },
			Response{Ensure: EnsureResult{Verdict: 2, Via: via}}},
		{OpEnsure, func(b []byte) []byte { return AppendEnsure(b, 0, nil) },
			Response{}},
		{OpRouteBatch, func(b []byte) []byte {
			b = AppendU16(b, 3)
			b = AppendRoute(append(b, 1), path, false)
			b = AppendString(append(b, 0), "stuck at (1,1)")
			return AppendRoute(append(b, 1), path[:1], true)
		}, Response{Routes: []RouteItem{
			{OK: true, Hops: 2, Path: path},
			{Hops: -1, Err: "stuck at (1,1)"},
			{OK: true, Hops: 0},
		}}},
		{OpHasMinimalPathBatch, func(b []byte) []byte { return AppendBools(b, bits) },
			Response{Bits: bits}},
		{OpEnsureBatch, func(b []byte) []byte {
			return AppendEnsure(AppendEnsure(AppendU16(b, 2), 1, via), 0, nil)
		}, Response{Ensures: []EnsureResult{{Verdict: 1, Via: via}, {}}}},
	}
	for i, c := range cases {
		id := uint32(100 + i)
		got, err := DecodeResponse(c.body(AppendOKHeader(nil, id)), c.op)
		if err != nil {
			t.Fatalf("case %d (op %d): %v", i, c.op, err)
		}
		c.want.ID = id
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("case %d (op %d):\n got  %+v\n want %+v", i, c.op, *got, c.want)
		}

		// Every op's error response decodes to its status and message,
		// whatever result layout the op would have had.
		errBody := AppendError(nil, id, StatusUnprocessable, "no path")
		got, err = DecodeResponse(errBody, c.op)
		if err != nil {
			t.Fatalf("case %d (op %d) error response: %v", i, c.op, err)
		}
		if want := (Response{ID: id, Status: StatusUnprocessable, Err: "no path"}); !reflect.DeepEqual(*got, want) {
			t.Errorf("case %d (op %d) error response: got %+v", i, c.op, *got)
		}
	}

	// Messages longer than a u16 length are truncated, not corrupted.
	long := strings.Repeat("e", 70000)
	got, err := DecodeResponse(AppendError(nil, 1, StatusBadRequest, long), OpRoute)
	if err != nil || got.Err != long[:0xffff] {
		t.Fatalf("long message: err %v, %d bytes back", err, len(got.Err))
	}
}

// TestJSONRoundTrip marshals each JSON request and answer type and
// checks it decodes back unchanged under the documented field names.
func TestJSONRoundTrip(t *testing.T) {
	st := extmesh.DefaultStrategy()
	c := func(x, y int) extmesh.Coord { return extmesh.Coord{X: x, Y: y} }
	values := []any{
		&Query{Src: c(1, 2), Dst: c(3, 4), Model: "mcc", Strategy: &st, OmitPath: true},
		&RouteBatchRequest{Pairs: []Pair{{Src: c(0, 0), Dst: c(5, 5)}}, Model: "blocks", OmitPaths: true},
		&FanRequest{Src: c(2, 2), Dests: []extmesh.Coord{c(3, 3), c(-1, 0)}, Strategy: &st},
		&RouteResult{Hops: 2, Path: extmesh.Path{c(0, 0), c(1, 0), c(1, 1)}},
		&Assurance{Verdict: "sub-minimal", Via: []extmesh.Coord{c(4, 4)}, Hops: -1},
		&Results[BatchRouteResult]{Results: []BatchRouteResult{{Hops: 1, Path: extmesh.Path{c(0, 0), c(0, 1)}}, {Hops: -1, Error: "stuck"}}},
		&Results[bool]{Results: []bool{true, false}},
		&SafeResult{Safe: true},
		&ExistsResult{Exists: true},
		&FaultsRequest{Fail: []extmesh.Coord{c(1, 1)}, Recover: []extmesh.Coord{c(2, 2)}},
		&ErrorBody{Error: "fenced", Code: "fenced"},
	}
	for _, v := range values {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		back := reflect.New(reflect.TypeOf(v).Elem()).Interface()
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		if !reflect.DeepEqual(back, v) {
			t.Errorf("%T round trip: %s decoded to %+v", v, raw, back)
		}
	}
	// The field names are the protocol; pin the ones clients rely on.
	raw, _ := json.Marshal(RouteBatchRequest{Pairs: []Pair{{}}, OmitPaths: true})
	if want := `{"pairs":[{"src":{"X":0,"Y":0},"dst":{"X":0,"Y":0}}],"omit_paths":true}`; string(raw) != want {
		t.Errorf("RouteBatchRequest = %s, want %s", raw, want)
	}
}

func TestStatusTableAndModels(t *testing.T) {
	want := map[uint8]int{
		StatusOK:            http.StatusOK,
		StatusBadRequest:    http.StatusBadRequest,
		StatusNotFound:      http.StatusNotFound,
		StatusUnprocessable: http.StatusUnprocessableEntity,
		StatusInternal:      http.StatusInternalServerError,
		StatusSaturated:     http.StatusTooManyRequests,
		StatusSaturated + 1: http.StatusInternalServerError,
		255:                 http.StatusInternalServerError,
	}
	for status, code := range want {
		if got := HTTPStatus(status); got != code {
			t.Errorf("HTTPStatus(%d) = %d, want %d", status, got, code)
		}
	}
	for model, flag := range map[string]uint8{"": 0, "blocks": 0, "mcc": FlagMCC} {
		if got, err := ParseModel(model); err != nil || got != flag {
			t.Errorf("ParseModel(%q) = %d, %v; want %d", model, got, err, flag)
		}
	}
	if _, err := ParseModel("cubes"); err == nil || !strings.Contains(err.Error(), `"cubes"`) {
		t.Errorf("ParseModel(cubes) error = %v", err)
	}
}
