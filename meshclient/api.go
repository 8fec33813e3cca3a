package meshclient

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"extmesh"
	"extmesh/internal/wire"
)

// The request and answer types are the server's own JSON schema
// (internal/wire), so client and server cannot drift apart; the aliases
// make them this package's types for callers outside the module.
type (
	MeshInfo         = wire.MeshInfo
	MeshState        = wire.MeshState
	Query            = wire.Query
	RouteResult      = wire.RouteResult
	Assurance        = wire.Assurance
	Pair             = wire.Pair
	BatchRouteResult = wire.BatchRouteResult
	FaultsRequest    = wire.FaultsRequest
	FaultsResult     = wire.FaultsResult
	Stats            = wire.Stats
)

// transport performs one API call with Client.Do's contract.
type transport func(ctx context.Context, method, path string, body []byte, idempotent bool) (*Response, error)

// Endpoints is the typed meshserved API, built over two transports:
// reads (queries and exports) and writes (lifecycle and fault
// mutations). A Client sends both through its own Do; a ClusterClient
// sends reads through DoRead and writes through DoWrite.
type Endpoints struct {
	read, write transport
}

// call marshals req (nil means no body), performs it over do, and
// decodes a 2xx body into out (nil discards it).
func call(ctx context.Context, do transport, method, path string, req any, idempotent bool, out any) error {
	var body []byte
	if req != nil {
		var err error
		body, err = json.Marshal(req)
		if err != nil {
			return fmt.Errorf("meshclient: encode request: %w", err)
		}
	}
	resp, err := do(ctx, method, path, body, idempotent)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp.Body, out); err != nil {
		return fmt.Errorf("meshclient: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// callFor is call decoding into a fresh T.
func callFor[T any](ctx context.Context, do transport, method, path string, req any, idempotent bool) (*T, error) {
	var out T
	if err := call(ctx, do, method, path, req, idempotent, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// query posts a read-only query to one of mesh's endpoints.
func query[T any](ctx context.Context, e Endpoints, mesh, suffix string, req any) (*T, error) {
	return callFor[T](ctx, e.read, http.MethodPost, meshPath(mesh, suffix), req, true)
}

func meshPath(name, suffix string) string {
	return "/v1/mesh/" + url.PathEscape(name) + suffix
}

// --- lifecycle --------------------------------------------------------

// CreateMesh registers a named mesh. Not idempotent: a replayed create
// would 409 against its own first delivery, so ambiguous failures are
// surfaced rather than retried.
func (e Endpoints) CreateMesh(ctx context.Context, name string, width, height int, faults []extmesh.Coord) (*MeshInfo, error) {
	req := wire.CreateRequest{Name: name, Width: width, Height: height, Faults: faults}
	return callFor[MeshInfo](ctx, e.write, http.MethodPost, "/v1/mesh", req, false)
}

// UploadMesh creates or replaces a mesh from a serialized network blob
// (extmesh.Network/DynamicNetwork MarshalJSON format). PUT is
// idempotent — replaying it converges on the same state.
func (e Endpoints) UploadMesh(ctx context.Context, name string, blob []byte) (*MeshInfo, error) {
	resp, err := e.write(ctx, http.MethodPut, meshPath(name, ""), blob, true)
	if err != nil {
		return nil, err
	}
	var info MeshInfo
	if err := json.Unmarshal(resp.Body, &info); err != nil {
		return nil, fmt.Errorf("meshclient: decode upload response: %w", err)
	}
	return &info, nil
}

// DeleteMesh removes a mesh. Idempotent in effect, but a replayed
// delete answers 404 — callers tolerating that may ignore
// *APIError with Status 404.
func (e Endpoints) DeleteMesh(ctx context.Context, name string) error {
	return call(ctx, e.write, http.MethodDelete, meshPath(name, ""), nil, true, nil)
}

// GetMesh exports a mesh: dimensions, version and full fault list.
func (e Endpoints) GetMesh(ctx context.Context, name string) (*MeshState, error) {
	return callFor[MeshState](ctx, e.read, http.MethodGet, meshPath(name, ""), nil, true)
}

// ListMeshes returns the registered mesh summaries.
func (e Endpoints) ListMeshes(ctx context.Context) ([]MeshInfo, error) {
	var out struct {
		Meshes []MeshInfo `json:"meshes"`
	}
	if err := call(ctx, e.read, http.MethodGet, "/v1/mesh", nil, true, &out); err != nil {
		return nil, err
	}
	return out.Meshes, nil
}

// --- single queries ---------------------------------------------------

// Route asks for a Wu-protocol route.
func (e Endpoints) Route(ctx context.Context, mesh string, q Query) (*RouteResult, error) {
	return query[RouteResult](ctx, e, mesh, "/route", q)
}

// RouteAssured asks for an Ensure verdict plus the two-phase route it
// guarantees.
func (e Endpoints) RouteAssured(ctx context.Context, mesh string, q Query) (*Assurance, error) {
	return query[Assurance](ctx, e, mesh, "/route-assured", q)
}

// Safe evaluates the paper's Theorem-1 sufficient condition.
func (e Endpoints) Safe(ctx context.Context, mesh string, q Query) (bool, error) {
	out, err := query[wire.SafeResult](ctx, e, mesh, "/safe", q)
	if err != nil {
		return false, err
	}
	return out.Safe, nil
}

// Ensure runs the strategy cascade and returns its verdict.
func (e Endpoints) Ensure(ctx context.Context, mesh string, q Query) (*Assurance, error) {
	return query[Assurance](ctx, e, mesh, "/ensure", q)
}

// HasMinimalPath asks the exact existence question.
func (e Endpoints) HasMinimalPath(ctx context.Context, mesh string, q Query) (bool, error) {
	out, err := query[wire.ExistsResult](ctx, e, mesh, "/has-minimal-path", q)
	if err != nil {
		return false, err
	}
	return out.Exists, nil
}

// --- batch queries ----------------------------------------------------

// RouteBatch routes many pairs in one request (server worker pool).
func (e Endpoints) RouteBatch(ctx context.Context, mesh string, pairs []Pair, model string, omitPaths bool) ([]BatchRouteResult, error) {
	req := wire.RouteBatchRequest{Pairs: pairs, Model: model, OmitPaths: omitPaths}
	out, err := query[wire.Results[BatchRouteResult]](ctx, e, mesh, "/route/batch", req)
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// EnsureBatch fans one source against many destinations.
func (e Endpoints) EnsureBatch(ctx context.Context, mesh string, src extmesh.Coord, dests []extmesh.Coord, model string, strategy *extmesh.Strategy) ([]Assurance, error) {
	req := wire.FanRequest{Src: src, Dests: dests, Model: model, Strategy: strategy}
	out, err := query[wire.Results[Assurance]](ctx, e, mesh, "/ensure/batch", req)
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// HasMinimalPathBatch answers existence for many destinations from one
// reachability sweep.
func (e Endpoints) HasMinimalPathBatch(ctx context.Context, mesh string, src extmesh.Coord, dests []extmesh.Coord) ([]bool, error) {
	out, err := query[wire.Results[bool]](ctx, e, mesh, "/has-minimal-path/batch", wire.FanRequest{Src: src, Dests: dests})
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// --- admin ------------------------------------------------------------

// ApplyFaults applies a fault mutation. Not idempotent: replaying a
// batch can double-apply against concurrent mutators, so ambiguous
// failures surface to the caller (429s and dial failures still retry).
func (e Endpoints) ApplyFaults(ctx context.Context, mesh string, req FaultsRequest) (*FaultsResult, error) {
	return callFor[FaultsResult](ctx, e.write, http.MethodPost, meshPath(mesh, "/faults"), req, false)
}

// Stats fetches the per-mesh observability view.
func (e Endpoints) Stats(ctx context.Context, mesh string) (*Stats, error) {
	return callFor[Stats](ctx, e.read, http.MethodGet, meshPath(mesh, "/stats"), nil, true)
}
