package wire

import (
	"fmt"
	"net/http"

	"extmesh"
)

// The JSON schema of the HTTP query and lifecycle endpoints, declared
// once for both sides: internal/serve decodes requests and encodes
// answers with these types, and meshclient re-exports them as its own.

// Query is the body of the single-pair query endpoints.
type Query struct {
	Src      extmesh.Coord     `json:"src"`
	Dst      extmesh.Coord     `json:"dst"`
	Model    string            `json:"model,omitempty"`    // "blocks" (default) or "mcc"
	Strategy *extmesh.Strategy `json:"strategy,omitempty"` // nil = server default
	OmitPath bool              `json:"omit_path,omitempty"`
}

// Pair is one source/destination pair of a batch request.
type Pair struct {
	Src extmesh.Coord `json:"src"`
	Dst extmesh.Coord `json:"dst"`
}

// RouteBatchRequest is the POST .../route/batch body.
type RouteBatchRequest struct {
	Pairs     []Pair `json:"pairs"`
	Model     string `json:"model,omitempty"`
	OmitPaths bool   `json:"omit_paths,omitempty"`
}

// FanRequest is the one-source/many-destination batch body of
// .../ensure/batch and .../has-minimal-path/batch.
type FanRequest struct {
	Src      extmesh.Coord     `json:"src"`
	Dests    []extmesh.Coord   `json:"dests"`
	Model    string            `json:"model,omitempty"`
	Strategy *extmesh.Strategy `json:"strategy,omitempty"`
}

// RouteResult is one routing outcome. Hops is len(path)-1; the path
// is omitted when the client asked for counts only.
type RouteResult struct {
	Hops int          `json:"hops"`
	Path extmesh.Path `json:"path,omitempty"`
}

// Assurance pairs a verdict with the condition that produced it. Hops
// and Path are set by route-assured; ensure answers carry Hops -1.
type Assurance struct {
	Verdict string          `json:"verdict"`
	Via     []extmesh.Coord `json:"via,omitempty"`
	Hops    int             `json:"hops"`
	Path    extmesh.Path    `json:"path,omitempty"`
}

// BatchRouteResult is one pair's outcome within a route batch; Error
// is set when that pair failed and the route fields are meaningless.
type BatchRouteResult struct {
	Hops  int          `json:"hops"`
	Path  extmesh.Path `json:"path,omitempty"`
	Error string       `json:"error,omitempty"`
}

// SafeResult answers .../safe.
type SafeResult struct {
	Safe bool `json:"safe"`
}

// ExistsResult answers .../has-minimal-path.
type ExistsResult struct {
	Exists bool `json:"exists"`
}

// Results wraps every batch answer.
type Results[T any] struct {
	Results []T `json:"results"`
}

// CreateRequest is the POST /v1/mesh body.
type CreateRequest struct {
	Name   string          `json:"name"`
	Width  int             `json:"width"`
	Height int             `json:"height"`
	Faults []extmesh.Coord `json:"faults"`
}

// MeshInfo is the summary the lifecycle endpoints return.
type MeshInfo struct {
	Name    string `json:"name"`
	Width   int    `json:"width"`
	Height  int    `json:"height"`
	Faults  int    `json:"faults"`
	Version uint64 `json:"version"`
}

// MeshState is the full export of GET /v1/mesh/{name}: the info plus
// the complete fault list.
type MeshState struct {
	Name    string          `json:"name"`
	Width   int             `json:"width"`
	Height  int             `json:"height"`
	Faults  []extmesh.Coord `json:"faults"`
	Version uint64          `json:"version"`
}

// FaultsRequest is the POST .../faults body: a fail list and a recover
// list, applied fails first (DynamicNetwork.Apply order). Together
// they carry at least one and at most serve.MaxBatch events.
type FaultsRequest struct {
	Fail    []extmesh.Coord `json:"fail,omitempty"`
	Recover []extmesh.Coord `json:"recover,omitempty"`
}

// FaultsResult reports what a fault batch changed.
type FaultsResult struct {
	Applied int    `json:"applied"`
	Skipped int    `json:"skipped"`
	Faults  int    `json:"faults"`
	Version uint64 `json:"version"`
}

// Stats is the per-mesh observability view of GET .../stats: the mesh
// vitals, the reach-cache effectiveness of the current snapshot, the
// server-wide reliability sweep counters and the cluster epoch.
type Stats struct {
	MeshInfo
	ReachHits    uint64     `json:"reach_hits"`
	ReachMisses  uint64     `json:"reach_misses"`
	ReachHitRate float64    `json:"reach_hit_rate"`
	Reliability  SweepStats `json:"reliability"`
	Epoch        uint64     `json:"epoch"`
	Promotions   uint64     `json:"promotions"`
	FencedWrites uint64     `json:"fenced_writes"`
}

// SweepStats is the reliability sweep-counter block of Stats.
type SweepStats struct {
	Sweeps   uint64 `json:"sweeps"`
	Trials   uint64 `json:"trials"`
	Shed     uint64 `json:"shed"`
	InFlight int64  `json:"in_flight"`
}

// ErrorBody is every error answer. Code is a stable machine-readable
// discriminator ("read_only", "fenced", "stale_epoch",
// "replication_unconfirmed") so cluster clients can branch on the
// failure class without parsing prose; plain errors omit it.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// ParseModel resolves a JSON "model" field to its request flag: "" and
// "blocks" select faulty blocks (no flag), "mcc" selects FlagMCC.
func ParseModel(model string) (uint8, error) {
	switch model {
	case "", "blocks":
		return 0, nil
	case "mcc":
		return FlagMCC, nil
	}
	return 0, fmt.Errorf("unknown fault model %q (want blocks or mcc)", model)
}

// httpStatus is the status table: each wire status and the HTTP status
// the JSON endpoints answer the same outcome with.
var httpStatus = [...]int{
	StatusOK:            http.StatusOK,
	StatusBadRequest:    http.StatusBadRequest,
	StatusNotFound:      http.StatusNotFound,
	StatusUnprocessable: http.StatusUnprocessableEntity,
	StatusInternal:      http.StatusInternalServerError,
	StatusSaturated:     http.StatusTooManyRequests,
}

// HTTPStatus maps a wire status to its HTTP status; unknown statuses
// map to 500.
func HTTPStatus(status uint8) int {
	if int(status) < len(httpStatus) {
		return httpStatus[status]
	}
	return http.StatusInternalServerError
}
