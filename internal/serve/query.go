package serve

import (
	"fmt"
	"sync"

	"extmesh"
	"extmesh/internal/wire"
)

// The query core: both serving planes decode a request into a query,
// hand it to Server.answer, and encode what comes back. Validation,
// model parsing, batch bounds, snapshot lookup, scratch pooling and
// the outcome status live here only, so the JSON and binary planes
// cannot drift apart in what they accept or answer.

// opRouteAssured selects RouteAssured. It is JSON-only: the binary
// protocol has no selector for it, and the value lies outside the
// wire.Op* range.
const opRouteAssured = 0x80

// query is one decoded query of either plane. Which fields are
// meaningful depends on op (a wire.Op* selector or opRouteAssured).
type query struct {
	op       uint8
	mesh     string
	model    string            // "", "blocks" or "mcc"
	strategy *extmesh.Strategy // nil selects extmesh.DefaultStrategy
	omit     bool              // answer route hop counts without paths

	src, dst extmesh.Coord
	pairs    []wire.Pair     // route batch from the JSON plane
	flat     []extmesh.Coord // route batch from the binary plane, src,dst interleaved
	dests    []extmesh.Coord // fan batches
}

// reqScratch is one query's pooled storage: the pair list and route
// arena the core works in, the answer it computed, and the JSON
// plane's batch result slice. Pooling it lets a warm serving plane
// answer route traffic with zero steady-state allocation in the
// routing layer. The codecs serialize the answer before the scratch
// returns to the pool, so no buffer outlives its request.
type reqScratch struct {
	pairs []extmesh.Pair
	arena extmesh.RouteArena

	// The answer; which fields are set depends on the op.
	path       extmesh.Path          // route, route-assured
	ok         bool                  // safe, has-minimal-path
	assurance  extmesh.Assurance     // ensure, route-assured
	routes     []extmesh.RouteResult // route batch, backed by arena
	bools      []bool                // has-minimal-path batch
	assurances []extmesh.Assurance   // ensure batch

	out []wire.BatchRouteResult // the JSON codec's route batch encoding
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// answer runs q and calls emit once with the outcome: wire.StatusOK
// and the answer in sc, or another status and its message. The status
// maps to HTTP through wire.HTTPStatus. sc returns to the pool when
// emit returns, so emit must serialize everything it reads from it.
func (s *Server) answer(q *query, emit func(status uint8, msg string, sc *reqScratch)) {
	sc := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(sc)
	status, msg := s.run(q, sc)
	emit(status, msg, sc)
}

// run is the one dispatch over query ops.
func (s *Server) run(q *query, sc *reqScratch) (uint8, string) {
	flags, err := wire.ParseModel(q.model)
	if err != nil {
		return wire.StatusBadRequest, err.Error()
	}
	fm := extmesh.Blocks
	if flags&wire.FlagMCC != 0 {
		fm = extmesh.MCC
	}
	st := extmesh.DefaultStrategy()
	if q.strategy != nil {
		if q.strategy.PivotLevels > MaxPivotLevels {
			return wire.StatusBadRequest, fmt.Sprintf("strategy PivotLevels %d exceeds the %d limit",
				q.strategy.PivotLevels, MaxPivotLevels)
		}
		st = *q.strategy
	}
	_, n, status, msg := s.snapshot(q.mesh)
	if n == nil {
		return status, msg
	}

	switch q.op {
	case wire.OpRoute:
		p, err := n.RouteInto(sc.path[:0], q.src, q.dst, fm)
		sc.path = p
		if err != nil {
			return wire.StatusUnprocessable, err.Error()
		}
	case opRouteAssured:
		p, a, err := n.RouteAssured(q.src, q.dst, fm, st)
		if err != nil {
			return wire.StatusUnprocessable, err.Error()
		}
		sc.path, sc.assurance = p, a
	case wire.OpSafe:
		sc.ok = n.Safe(q.src, q.dst, fm)
	case wire.OpHasMinimalPath:
		sc.ok = n.HasMinimalPath(q.src, q.dst)
	case wire.OpEnsure:
		sc.assurance = n.Ensure(q.src, q.dst, fm, st)
	case wire.OpRouteBatch:
		if msg := checkBatch(len(q.pairs)+len(q.flat)/2, "pairs"); msg != "" {
			return wire.StatusBadRequest, msg
		}
		ps := sc.pairs[:0]
		for _, p := range q.pairs {
			ps = append(ps, extmesh.Pair(p))
		}
		for i := 0; i+1 < len(q.flat); i += 2 {
			ps = append(ps, extmesh.Pair{Src: q.flat[i], Dst: q.flat[i+1]})
		}
		sc.pairs = ps
		sc.routes = n.RouteManyInto(&sc.arena, ps, fm)
	case wire.OpHasMinimalPathBatch:
		if msg := checkBatch(len(q.dests), "destinations"); msg != "" {
			return wire.StatusBadRequest, msg
		}
		sc.bools = n.HasMinimalPathAllInto(sc.bools, q.src, q.dests)
	case wire.OpEnsureBatch:
		if msg := checkBatch(len(q.dests), "destinations"); msg != "" {
			return wire.StatusBadRequest, msg
		}
		sc.assurances = n.EnsureAll(q.src, q.dests, fm, st)
	default:
		return wire.StatusBadRequest, fmt.Sprintf("unknown op %d", q.op)
	}
	return wire.StatusOK, ""
}

// checkBatch returns the bound a batch of n items violates, or "".
func checkBatch(n int, noun string) string {
	if n == 0 {
		return "empty batch"
	}
	if n > MaxBatch {
		return fmt.Sprintf("batch of %d %s exceeds the %d limit", n, noun, MaxBatch)
	}
	return ""
}

// snapshot resolves a mesh name to the live mesh and its frozen query
// snapshot, or to the status and message explaining why it cannot.
func (s *Server) snapshot(name string) (*extmesh.DynamicNetwork, *extmesh.Network, uint8, string) {
	d := s.meshes.Get(name)
	if d == nil {
		return nil, nil, wire.StatusNotFound, fmt.Sprintf("mesh %q not registered", name)
	}
	n, err := d.Snapshot()
	if err != nil {
		return d, nil, wire.StatusInternal, fmt.Sprintf("snapshot failed: %v", err)
	}
	return d, n, wire.StatusOK, ""
}
