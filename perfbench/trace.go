package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"extmesh"
	"extmesh/internal/core"
	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/safety"
	"extmesh/internal/wang"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span of the layer above (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory span log; later spans are counted as
// dropped instead of recorded.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	reqs    atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newReq() uint64 { return t.reqs.Add(1) }

// record logs one span and returns its id.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) uint64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replaySample is how many of a workload's requests the traced run
// replays through the four boundaries.
const replaySample = 256

// replayReq is one sampled request: a single-pair query (Src, Dst) or,
// for wire.OpRouteBatch, a batch of pairs (hop counts only).
type replayReq struct {
	Op       uint8
	Src, Dst extmesh.Coord
	Pairs    []meshclient.Pair
}

// replayTarget is what the replay drives: a serving node and its mesh,
// the workload's transport, and the sampled requests.
type replayTarget struct {
	node *node
	d    *extmesh.DynamicNetwork
	reqs []replayReq
	// binary marks the workload's own transport as the binary plane
	// (else JSON); json is the workload's JSON client, if it has one.
	binary bool
	json   *meshclient.Client
}

// replayStats are the per-request self times of the replay, one sample
// per request, plus the wire codec costs.
type replayStats struct {
	clientSelf, httpSelf, binarySelf, extmeshSelf, kernel []time.Duration
	encode, decode                                        []time.Duration
	respBytes                                             []float64
	socketClient, socketServer                            time.Duration
	socketN                                               int
}

// kernelState is the innermost layer built directly from the fault set
// with the public functions of internal/fault, core, route and wang,
// plus the scratch the Network-boundary calls reuse.
type kernelState struct {
	md     *core.Model
	rt     *route.Router
	reach  *wang.ReachCache
	buf    []extmesh.Coord
	arena  extmesh.RouteArena
	netBuf []extmesh.Coord
}

func newKernel(faults []extmesh.Coord) (*kernelState, error) {
	m := mesh.Mesh{Width: meshSide, Height: meshSide}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		return nil, err
	}
	bs := fault.BuildBlocks(sc)
	md, err := core.NewModel(m, bs.BlockedGrid())
	if err != nil {
		return nil, err
	}
	grid := make([]bool, m.Size())
	for _, f := range faults {
		grid[m.Index(f)] = true
	}
	bits := new(mesh.Bits).FromBools(m, grid)
	return &kernelState{md: md, rt: route.NewRouter(m, md.Blocked),
		reach: wang.NewReachCacheBits(m, bits, extmesh.ReachCacheCapacity)}, nil
}

// kernelStrategy is extmesh.DefaultStrategy in the core package's terms, the
// translation Network.Ensure performs.
func kernelStrategy(s, d extmesh.Coord) core.Strategy {
	region := mesh.Rect{MinX: min(s.X, d.X), MinY: min(s.Y, d.Y), MaxX: max(s.X, d.X), MaxY: max(s.Y, d.Y)}
	return core.Strategy{
		UseExt1: true, UseExt2: true, SegSize: core.StrategySegSize,
		UseExt3: true, AllowSubMinimal: true,
		Pivots: safety.Pivots(region, core.PivotLevels, safety.CenterPivots, nil),
	}
}

// call answers r at the kernel boundary.
func (k *kernelState) call(r replayReq) (uint64, error) {
	switch r.Op {
	case wire.OpRoute:
		p, err := k.rt.RouteInto(k.buf[:0], r.Src, r.Dst)
		k.buf = p
		if err != nil {
			return routeDigest(noPath, nil, true), nil
		}
		return routeDigest(len(p)-1, p, true), nil
	case wire.OpHasMinimalPath:
		return boolDigest(k.reach.CanReach(r.Src, r.Dst)), nil
	case wire.OpSafe:
		return boolDigest(k.md.Safe(r.Src, r.Dst)), nil
	case wire.OpEnsure:
		a := k.md.Evaluate(r.Src, r.Dst, kernelStrategy(r.Src, r.Dst))
		return ensureDigest(a.Verdict.String(), a.Via()), nil
	case wire.OpRouteBatch:
		dg := newDigest()
		for _, pr := range r.Pairs {
			p, err := k.rt.RouteInto(k.buf[:0], pr.Src, pr.Dst)
			k.buf = p
			if err != nil {
				dg.int(noPath)
			} else {
				dg.int(len(p) - 1)
			}
		}
		return dg.sum(), nil
	}
	return 0, fmt.Errorf("kernel: op %d not replayed", r.Op)
}

// networkCall answers r at the Snapshot-plus-Network boundary, the
// library calls the server handlers make.
func (k *kernelState) networkCall(d *extmesh.DynamicNetwork, r replayReq) (uint64, error) {
	n, err := d.Snapshot()
	if err != nil {
		return 0, err
	}
	switch r.Op {
	case wire.OpRoute:
		p, err := n.RouteInto(k.netBuf[:0], r.Src, r.Dst, extmesh.Blocks)
		k.netBuf = p
		if err != nil {
			return routeDigest(noPath, nil, true), nil
		}
		return routeDigest(len(p)-1, p, true), nil
	case wire.OpHasMinimalPath:
		return boolDigest(n.HasMinimalPath(r.Src, r.Dst)), nil
	case wire.OpSafe:
		return boolDigest(n.Safe(r.Src, r.Dst, extmesh.Blocks)), nil
	case wire.OpEnsure:
		a := n.Ensure(r.Src, r.Dst, extmesh.Blocks, extmesh.DefaultStrategy())
		return ensureDigest(a.Verdict.String(), a.Via()), nil
	case wire.OpRouteBatch:
		pairs := make([]extmesh.Pair, len(r.Pairs))
		for i, p := range r.Pairs {
			pairs[i] = extmesh.Pair{Src: p.Src, Dst: p.Dst}
		}
		dg := newDigest()
		for _, res := range n.RouteManyInto(&k.arena, pairs, extmesh.Blocks) {
			if res.Err != nil {
				dg.int(noPath)
			} else {
				dg.int(len(res.Path) - 1)
			}
		}
		return dg.sum(), nil
	}
	return 0, fmt.Errorf("network: op %d not replayed", r.Op)
}

// wireRequest is r in the binary protocol's terms.
func wireRequest(r replayReq) *wire.Request {
	req := &wire.Request{Op: r.Op, Mesh: meshName, Src: r.Src, Dst: r.Dst}
	if r.Op == wire.OpRouteBatch {
		req.Flags = wire.FlagOmitPaths
		for _, p := range r.Pairs {
			req.Pairs = append(req.Pairs, p.Src, p.Dst)
		}
	}
	return req
}

// responseDigest digests a decoded binary response.
func responseDigest(op uint8, resp *wire.Response) uint64 {
	if resp.Status == wire.StatusUnprocessable && op == wire.OpRoute {
		return routeDigest(noPath, nil, true)
	}
	switch op {
	case wire.OpRoute:
		return routeDigest(resp.Hops, resp.Path, true)
	case wire.OpHasMinimalPath, wire.OpSafe:
		return boolDigest(resp.Bool)
	case wire.OpEnsure:
		return ensureDigest(verdictName(resp.Ensure.Verdict), resp.Ensure.Via)
	default:
		dg := newDigest()
		for _, r := range resp.Routes {
			if r.OK {
				dg.int(r.Hops)
			} else {
				dg.int(noPath)
			}
		}
		return dg.sum()
	}
}

func verdictName(v uint8) string { return core.Verdict(v).String() }

// httpCall answers r through the server's handler chain in-process,
// with no socket.
func httpCall(h http.Handler, r replayReq) (uint64, time.Duration, error) {
	var path string
	var body any
	switch r.Op {
	case wire.OpRouteBatch:
		path, body = "/route/batch", map[string]any{"pairs": r.Pairs, "model": "blocks", "omit_paths": true}
	default:
		path = map[uint8]string{wire.OpRoute: "/route", wire.OpHasMinimalPath: "/has-minimal-path",
			wire.OpSafe: "/safe", wire.OpEnsure: "/ensure"}[r.Op]
		body = meshclient.Query{Src: r.Src, Dst: r.Dst}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/mesh/"+meshName+path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	dur := time.Since(t0)
	dg, err := httpDigest(r, rec.Code, rec.Body.Bytes())
	return dg, dur, err
}

// httpDigest digests a JSON response body.
func httpDigest(r replayReq, code int, body []byte) (uint64, error) {
	if code == http.StatusUnprocessableEntity && r.Op == wire.OpRoute {
		return routeDigest(noPath, nil, true), nil
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("in-process %d: %s", code, body)
	}
	switch r.Op {
	case wire.OpRoute:
		var out meshclient.RouteResult
		err := json.Unmarshal(body, &out)
		return routeDigest(out.Hops, out.Path, true), err
	case wire.OpHasMinimalPath:
		var out struct{ Exists bool }
		err := json.Unmarshal(body, &out)
		return boolDigest(out.Exists), err
	case wire.OpSafe:
		var out struct{ Safe bool }
		err := json.Unmarshal(body, &out)
		return boolDigest(out.Safe), err
	case wire.OpEnsure:
		var out meshclient.Assurance
		err := json.Unmarshal(body, &out)
		return ensureDigest(out.Verdict, out.Via), err
	default:
		var out struct{ Results []meshclient.BatchRouteResult }
		err := json.Unmarshal(body, &out)
		return batchDigest(out.Results), err
	}
}

// clientCall answers r through a meshclient over loopback.
func clientCall(ctx context.Context, jc *meshclient.Client, bc *meshclient.BinaryClient, r replayReq) (uint64, error) {
	if r.Op == wire.OpRouteBatch {
		var out []meshclient.BatchRouteResult
		var err error
		if bc != nil {
			out, err = bc.RouteBatch(ctx, meshName, r.Pairs, "blocks", true)
		} else {
			out, err = jc.RouteBatch(ctx, meshName, r.Pairs, "blocks", true)
		}
		return batchDigest(out), err
	}
	if bc != nil {
		dg, err := askBinary(ctx, bc, r.Op, r.Src, r.Dst)
		if !isFailure(err) {
			err = nil
		}
		return dg, err
	}
	q := query{Src: r.Src, Dst: r.Dst}
	switch r.Op {
	case wire.OpRoute:
		q.Op = opRoute
	case wire.OpHasMinimalPath:
		q.Op = opHasMinimalPath
	case wire.OpEnsure:
		q.Op = opEnsure
	default:
		q.Op = opSafe
	}
	dg, err := askJSON(ctx, jc, q)
	if !isFailure(err) {
		err = nil
	}
	return dg, err
}

// pipeClient is the binary plane driven over an in-memory connection.
type pipeClient struct {
	conn    net.Conn
	r       *bufio.Reader
	reqBuf  []byte
	respBuf []byte
	id      uint32
}

func (p *pipeClient) call(r replayReq) (*wire.Response, []byte, []byte, time.Duration, error) {
	req := wireRequest(r)
	p.id++
	req.ID = p.id
	p.reqBuf = wire.AppendRequest(p.reqBuf[:0], req)
	t0 := time.Now()
	if err := wire.WriteFrame(p.conn, p.reqBuf); err != nil {
		return nil, nil, nil, 0, err
	}
	body, err := wire.ReadFrame(p.r, wire.MaxResponseFrame, p.respBuf)
	dur := time.Since(t0)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	p.respBuf = body[:0]
	resp, err := wire.DecodeResponse(body, r.Op)
	return resp, p.reqBuf, body, dur, err
}

// replay sends every sampled request through the four boundaries —
// meshclient over loopback, the server entry in-process, Snapshot plus
// the Network call, and the kernel call — on both wire planes,
// recording each call as a span whose parent is the call above it. All
// answers must agree.
func replay(t *replayTarget, tr *tracer) (*replayStats, error) {
	ctx := context.Background()
	jc := t.json
	if jc == nil {
		var err error
		if jc, err = meshclient.New(meshclient.Options{BaseURL: t.node.httpURL}); err != nil {
			return nil, err
		}
	}
	bc, err := meshclient.NewBinary(meshclient.BinaryOptions{Addr: t.node.binAddr})
	if err != nil {
		return nil, err
	}
	defer bc.Close()
	pl := newPipeListener()
	pctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { t.node.srv.ServeBinary(pctx, pl, time.Second); close(done) }()
	defer func() { cancel(); <-done }()
	conn, err := pl.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	pc := &pipeClient{conn: conn, r: bufio.NewReader(conn)}

	snap, err := t.d.Snapshot()
	if err != nil {
		return nil, err
	}
	k, err := newKernel(snap.Faults())
	if err != nil {
		return nil, err
	}
	h := t.node.srv.Handler()
	histos := []string{"binary_latency"}
	if !t.binary {
		histos = httpQueryHistos
	}
	histo := func() (time.Duration, uint64) {
		var sum time.Duration
		var n uint64
		for _, name := range histos {
			hh := t.node.reg.Histogram(name)
			sum += hh.Sum()
			n += hh.Count()
		}
		return sum, n
	}

	st := &replayStats{}
	for _, r := range t.reqs {
		req := tr.newReq()
		// Warm the kernel's own caches for this request, as the server's
		// were warmed by the load.
		want, err := k.call(r)
		if err != nil {
			return nil, err
		}
		mismatch := func(layer string, got uint64) error {
			if got != want {
				return fmt.Errorf("replay op %d %v -> %v: %s answer differs from the kernel's", r.Op, r.Src, r.Dst, layer)
			}
			return nil
		}
		for _, binary := range []bool{false, true} {
			// Boundary 1: the client over loopback.
			s0, n0 := histo()
			t0 := time.Now()
			var got uint64
			if binary {
				got, err = clientCall(ctx, nil, bc, r)
			} else {
				got, err = clientCall(ctx, jc, nil, r)
			}
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if err := mismatch("client", got); err != nil {
				return nil, err
			}
			if binary == t.binary {
				s1, n1 := histo()
				if n1 > n0 {
					st.socketClient += t1.Sub(t0)
					st.socketServer += s1 - s0
					st.socketN++
				}
			}
			clientName := "meshclient.Client"
			if binary {
				clientName = "meshclient.BinaryClient"
			}
			id1 := tr.record(clientName, 0, req, t0, t1)

			// Boundary 2: the server entry without a socket.
			var d2 time.Duration
			var name2 string
			if binary {
				resp, reqBody, respBody, dur, err := pc.call(r)
				if err != nil {
					return nil, err
				}
				if err := mismatch("binary plane", responseDigest(r.Op, resp)); err != nil {
					return nil, err
				}
				d2, name2 = dur, "serve.binary"
				enc, dec := codecCost(r, reqBody, respBody)
				st.encode = append(st.encode, enc)
				st.decode = append(st.decode, dec)
				st.respBytes = append(st.respBytes, float64(len(respBody)))
			} else {
				got, dur, err := httpCall(h, r)
				if err != nil {
					return nil, err
				}
				if err := mismatch("HTTP handler", got); err != nil {
					return nil, err
				}
				d2, name2 = dur, "serve.http"
			}
			s2 := time.Now()
			id2 := tr.record(name2, id1, req, s2.Add(-d2), s2)

			// Boundary 3: Snapshot plus the Network call.
			t3 := time.Now()
			got, err = k.networkCall(t.d, r)
			d3 := time.Since(t3)
			if err != nil {
				return nil, err
			}
			if err := mismatch("Network", got); err != nil {
				return nil, err
			}
			id3 := tr.record("extmesh.Snapshot+Network", id2, req, t3, t3.Add(d3))

			// Boundary 4: the kernel.
			t4 := time.Now()
			if _, err := k.call(r); err != nil {
				return nil, err
			}
			d4 := time.Since(t4)
			tr.record(kernelName(r.Op), id3, req, t4, t4.Add(d4))

			if binary {
				st.binarySelf = append(st.binarySelf, d2-d3)
			} else {
				st.httpSelf = append(st.httpSelf, d2-d3)
			}
			if binary == t.binary {
				st.clientSelf = append(st.clientSelf, t1.Sub(t0)-d2)
				st.extmeshSelf = append(st.extmeshSelf, d3-d4)
				st.kernel = append(st.kernel, d4)
			}
		}
	}
	return st, nil
}

func kernelName(op uint8) string {
	switch op {
	case wire.OpHasMinimalPath:
		return "wang.ReachCache.CanReach"
	case wire.OpSafe:
		return "core.Model.Safe"
	case wire.OpEnsure:
		return "core.Model.Evaluate"
	default:
		return "route.Router.RouteInto"
	}
}

// codecReps repeats each codec call so one sample spans many clock
// ticks.
const codecReps = 64

// codecCost times the wire codec on one request: AppendRequest, and
// DecodeRequest plus DecodeResponse, per call.
func codecCost(r replayReq, reqBody, respBody []byte) (enc, dec time.Duration) {
	req := wireRequest(r)
	var buf []byte
	t0 := time.Now()
	for i := 0; i < codecReps; i++ {
		buf = wire.AppendRequest(buf[:0], req)
	}
	enc = time.Since(t0) / codecReps
	t1 := time.Now()
	for i := 0; i < codecReps; i++ {
		wire.DecodeRequest(reqBody)
		wire.DecodeResponse(respBody, r.Op)
	}
	dec = time.Since(t1) / codecReps
	return enc, dec
}
