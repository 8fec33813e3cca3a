package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"extmesh"
	"extmesh/internal/wire"
)

// Request-size limits: a decoded batch is capped like the encoding
// layer caps mesh dimensions (extmesh.MaxDecodeNodes), so untrusted
// input cannot make one request allocate unbounded result sets.
const (
	// MaxBatch bounds the pairs or destinations of one batch request.
	MaxBatch = 4096
	// MaxPivotLevels bounds a client strategy's PivotLevels (the paper
	// uses 1-3). Each level quadruples the extension-3 pivot count until
	// the region is split into single cells, and every level past that
	// re-appends them all, so an unbounded level is unbounded work.
	MaxPivotLevels = 8
	// MaxRequestBytes bounds a request body; the largest legitimate
	// body is an uploaded network blob (dimensions plus fault list).
	MaxRequestBytes = 8 << 20
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) // write errors mean a gone client; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, wire.ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// writeMutationError maps a persister failure to a status: a journal
// write failure is the server's fault (500, the mutation applied in
// memory but is not crash-safe); anything else is the caller's, at the
// given status.
func writeMutationError(w http.ResponseWriter, err error, callerStatus int) {
	var je *journalError
	if errors.As(err, &je) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeError(w, callerStatus, "%v", err)
}

// decodeBody parses the JSON request body into v, enforcing the size
// cap and rejecting trailing garbage.
func decodeBody(r *http.Request, v any) error {
	body := http.MaxBytesReader(nil, r.Body, MaxRequestBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("request body exceeds %d bytes", int64(MaxRequestBytes))
		}
		return fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data after JSON value")
	}
	return nil
}

// meshFor resolves the {name} path wildcard to a live mesh, writing
// the 404 itself when absent.
func (s *Server) meshFor(w http.ResponseWriter, r *http.Request) (string, *extmesh.DynamicNetwork) {
	name := r.PathValue("name")
	d := s.meshes.Get(name)
	if d == nil {
		writeError(w, http.StatusNotFound, "mesh %q not registered", name)
	}
	return name, d
}

func infoOf(name string, d *extmesh.DynamicNetwork) wire.MeshInfo {
	return wire.MeshInfo{
		Name:    name,
		Width:   d.Width(),
		Height:  d.Height(),
		Faults:  d.FaultCount(),
		Version: d.Version(),
	}
}

// --- mesh lifecycle -------------------------------------------------

// denyWrite is the mutation gate, checked before any state changes.
// Three refusals, in precedence order:
//
//   - stale_epoch (409): the client has observed a newer cluster epoch
//     than this node knows — a promotion happened past us, so this node
//     must not accept the write even if it still believes it is
//     primary. The failover controller is nudged to re-probe, but only
//     at a bounded rate: the header is unauthenticated client input,
//     and a fabricated epoch the node can never corroborate must not
//     become a lever for keeping the prober spinning. The refusal
//     itself stays per-request and carries no trust — it never alters
//     node state.
//   - read_only (403): the node is a replica; the replication stream
//     is its only legal write path.
//   - fenced (503 + Retry-After): the node is primary by role but has
//     lost its lease (no replica confirms it); accepting writes here
//     risks acknowledged-write loss if a promotion is under way.
func (s *Server) denyWrite(w http.ResponseWriter, r *http.Request) bool {
	if eh := r.Header.Get("X-Cluster-Epoch"); eh != "" {
		if e, perr := strconv.ParseUint(eh, 10, 64); perr == nil && e > s.Epoch() {
			s.fencedWrites.Inc()
			if now, last := time.Now().UnixNano(), s.clientNudge.Load(); now-last >= int64(clientNudgeMinGap) &&
				s.clientNudge.CompareAndSwap(last, now) {
				s.nudgeFailover()
			}
			writeErrorCode(w, http.StatusConflict, "stale_epoch",
				"node epoch %d is behind client-observed epoch %d: a newer primary exists", s.Epoch(), e)
			return true
		}
	}
	if s.readOnly.Load() {
		writeErrorCode(w, http.StatusForbidden, "read_only",
			"node is a read-only replica: route mutations to the primary")
		return true
	}
	if s.fenced.Load() {
		s.fencedWrites.Inc()
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, "fenced",
			"primary lease lost: no replica is confirming writes; retry shortly")
		return true
	}
	return false
}

// confirmWrite gates a mutation acknowledgment on replication in
// failover-managed clusters: the response is held until one follower
// acks the record, because a promotion only preserves writes the new
// primary had applied. On timeout the client gets a 503 — the write
// applied locally but MUST NOT be treated as cluster-durable (it may
// vanish if a failover intervenes). Outside managed clusters this is a
// no-op, preserving single-primary availability semantics.
func (s *Server) confirmWrite(w http.ResponseWriter) bool {
	if s.failover.Load() == nil || s.persist.store == nil {
		return true
	}
	if err := s.hub.waitAcked(s.journalSeq.Load(), repAckWait); err != nil {
		writeErrorCode(w, http.StatusServiceUnavailable, "replication_unconfirmed",
			"write applied locally but not confirmed by any replica: %v", err)
		return false
	}
	return true
}

func (s *Server) handleCreateMesh(w http.ResponseWriter, r *http.Request) {
	if s.denyWrite(w, r) {
		return
	}
	var req wire.CreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ValidName(req.Name) {
		writeError(w, http.StatusBadRequest, "invalid mesh name %q (want 1-64 of [A-Za-z0-9._-])", req.Name)
		return
	}
	// Round-trip through the validated decoder so dimension caps and
	// fault validation are identical to the encoding layer's.
	blob, err := json.Marshal(map[string]any{
		"width": req.Width, "height": req.Height, "faults": req.Faults,
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	d, err := extmesh.UnmarshalDynamic(blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.persist.create(req.Name, d); err != nil {
		writeMutationError(w, err, http.StatusConflict)
		return
	}
	if !s.confirmWrite(w) {
		return
	}
	writeJSON(w, http.StatusCreated, infoOf(req.Name, d))
}

// handleUploadMesh is PUT /v1/mesh/{name}: create or replace from a
// serialized network blob (Network.MarshalJSON format).
func (s *Server) handleUploadMesh(w http.ResponseWriter, r *http.Request) {
	if s.denyWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	if !ValidName(name) {
		writeError(w, http.StatusBadRequest, "invalid mesh name %q", name)
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	d, err := extmesh.UnmarshalDynamic(blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	replaced := s.meshes.Get(name) != nil
	if err := s.persist.put(name, d); err != nil {
		writeMutationError(w, err, http.StatusBadRequest)
		return
	}
	if !s.confirmWrite(w) {
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, infoOf(name, d))
}

func (s *Server) handleListMeshes(w http.ResponseWriter, r *http.Request) {
	names := s.meshes.Names()
	out := make([]wire.MeshInfo, 0, len(names))
	for _, name := range names {
		if d := s.meshes.Get(name); d != nil {
			out = append(out, infoOf(name, d))
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"meshes": out})
}

// handleGetMesh is GET /v1/mesh/{name}: the info plus the full fault
// list — the blob form, so the endpoint doubles as export.
func (s *Server) handleGetMesh(w http.ResponseWriter, r *http.Request) {
	name, d := s.meshFor(w, r)
	if d == nil {
		return
	}
	writeJSON(w, http.StatusOK, wire.MeshState{
		Name:    name,
		Width:   d.Width(),
		Height:  d.Height(),
		Faults:  d.Faults(),
		Version: d.Version(),
	})
}

func (s *Server) handleDeleteMesh(w http.ResponseWriter, r *http.Request) {
	if s.denyWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	existed, err := s.persist.delete(name)
	if err != nil {
		writeMutationError(w, err, http.StatusInternalServerError)
		return
	}
	if !existed {
		writeError(w, http.StatusNotFound, "mesh %q not registered", name)
		return
	}
	if !s.confirmWrite(w) {
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- queries --------------------------------------------------------

// handleQuery is the JSON codec of one query op: it decodes the body
// into the op's request type, runs the core, and encodes the answer or
// the error at the HTTP status the core's outcome maps to.
func (s *Server) handleQuery(op uint8) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := query{op: op, mesh: r.PathValue("name")}
		if err := decodeQuery(r, &q); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.answer(&q, func(status uint8, msg string, sc *reqScratch) {
			if status != wire.StatusOK {
				writeJSON(w, wire.HTTPStatus(status), wire.ErrorBody{Error: msg})
				return
			}
			writeJSON(w, http.StatusOK, jsonAnswer(&q, sc))
		})
	}
}

// decodeQuery parses the body of q.op's endpoint into q.
func decodeQuery(r *http.Request, q *query) error {
	switch q.op {
	case wire.OpRouteBatch:
		var req wire.RouteBatchRequest
		if err := decodeBody(r, &req); err != nil {
			return err
		}
		q.pairs, q.model, q.omit = req.Pairs, req.Model, req.OmitPaths
	case wire.OpHasMinimalPathBatch, wire.OpEnsureBatch:
		var req wire.FanRequest
		if err := decodeBody(r, &req); err != nil {
			return err
		}
		q.src, q.dests, q.model, q.strategy = req.Src, req.Dests, req.Model, req.Strategy
	default:
		var req wire.Query
		if err := decodeBody(r, &req); err != nil {
			return err
		}
		q.src, q.dst, q.model, q.strategy, q.omit = req.Src, req.Dst, req.Model, req.Strategy, req.OmitPath
	}
	return nil
}

// jsonAnswer is the JSON body of a successful query.
func jsonAnswer(q *query, sc *reqScratch) any {
	path := sc.path
	if q.omit {
		path = nil
	}
	switch q.op {
	case wire.OpRoute:
		return wire.RouteResult{Hops: len(sc.path) - 1, Path: path}
	case opRouteAssured:
		a := assuranceJSON(&sc.assurance, len(sc.path)-1)
		a.Path = path
		return a
	case wire.OpSafe:
		return wire.SafeResult{Safe: sc.ok}
	case wire.OpHasMinimalPath:
		return wire.ExistsResult{Exists: sc.ok}
	case wire.OpEnsure:
		return assuranceJSON(&sc.assurance, -1)
	case wire.OpRouteBatch:
		out := sc.out[:0]
		for _, res := range sc.routes {
			item := wire.BatchRouteResult{Hops: len(res.Path) - 1}
			switch {
			case res.Err != nil:
				item = wire.BatchRouteResult{Hops: -1, Error: res.Err.Error()}
			case !q.omit:
				item.Path = res.Path
			}
			out = append(out, item)
		}
		sc.out = out
		return wire.Results[wire.BatchRouteResult]{Results: out}
	case wire.OpHasMinimalPathBatch:
		return wire.Results[bool]{Results: sc.bools}
	default: // wire.OpEnsureBatch; the core answers no other op
		out := make([]wire.Assurance, len(sc.assurances))
		for i := range sc.assurances {
			out[i] = assuranceJSON(&sc.assurances[i], -1)
		}
		return wire.Results[wire.Assurance]{Results: out}
	}
}

func assuranceJSON(a *extmesh.Assurance, hops int) wire.Assurance {
	return wire.Assurance{Verdict: a.Verdict.String(), Via: a.Via(), Hops: hops}
}

// --- admin ----------------------------------------------------------

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if s.denyWrite(w, r) {
		return
	}
	var req wire.FaultsRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name, d := s.meshFor(w, r)
	if d == nil {
		return
	}
	if len(req.Fail)+len(req.Recover) == 0 {
		writeError(w, http.StatusBadRequest, "nothing to apply: need fail or recover")
		return
	}
	if len(req.Fail)+len(req.Recover) > MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d events exceeds the %d limit",
			len(req.Fail)+len(req.Recover), MaxBatch)
		return
	}
	applied, skipped, err := s.persist.apply(name, d, req.Fail, req.Recover)
	if err != nil {
		writeMutationError(w, err, http.StatusBadRequest)
		return
	}
	if applied > 0 && !s.confirmWrite(w) {
		return
	}
	writeJSON(w, http.StatusOK, wire.FaultsResult{
		Applied: applied,
		Skipped: skipped,
		Faults:  d.FaultCount(),
		Version: d.Version(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, n, status, msg := s.snapshot(name)
	if n == nil {
		writeError(w, wire.HTTPStatus(status), "%s", msg)
		return
	}
	hits, misses := n.ReachCacheStats()
	resp := wire.Stats{MeshInfo: infoOf(name, d), ReachHits: hits, ReachMisses: misses,
		Reliability: s.reliabilityStats(),
		Epoch:       s.Epoch(), Promotions: s.promotions.Value(), FencedWrites: s.fencedWrites.Value()}
	if total := hits + misses; total > 0 {
		resp.ReachHitRate = float64(hits) / float64(total)
	}
	writeJSON(w, http.StatusOK, resp)
}
