package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"extmesh/internal/metrics"
	"extmesh/internal/wire"
)

// binaryServer serves the wire protocol (internal/wire) over persistent
// TCP connections: one goroutine per connection reads length-prefixed
// request frames, answers them strictly in order through the same
// query core and admission gate as the JSON endpoints, and
// batches response writes — the flush is deferred while more pipelined
// requests are already buffered, so a deep pipeline pays one syscall
// per burst instead of one per query.
type binaryServer struct {
	s *Server

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	drained bool

	wg sync.WaitGroup

	connsGauge *metrics.Gauge
	requests   *metrics.Counter
	errors     *metrics.Counter
	latency    *metrics.Histogram
}

func newBinaryServer(s *Server) *binaryServer {
	m := s.metrics
	return &binaryServer{
		s:          s,
		conns:      make(map[net.Conn]struct{}),
		connsGauge: m.Gauge("binary_conns"),
		requests:   m.Counter("binary_requests_total"),
		errors:     m.Counter("binary_errors_total"),
		latency:    m.Histogram("binary_latency"),
	}
}

// ServeBinary runs the binary query listener until ctx is canceled,
// then drains: the listener closes, every connection's pending
// responses are flushed and its reads are unblocked, and connections
// still busy after drainTimeout are cut off. The query surface and
// answers are identical to the JSON endpoints; mutating admin
// operations stay HTTP-only.
func (s *Server) ServeBinary(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	b := newBinaryServer(s)
	errc := make(chan error, 1)
	go func() { errc <- b.acceptLoop(l) }()
	select {
	case err := <-errc:
		// Listener failed before shutdown was requested. Connections
		// accepted earlier are still being served — without a drain they
		// would outlive this call, so cut them off before returning.
		b.beginDrain()
		b.closeAll()
		b.wg.Wait()
		return err
	case <-ctx.Done():
	}
	l.Close()
	<-errc
	b.beginDrain()
	done := make(chan struct{})
	go func() { b.wg.Wait(); close(done) }()
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		b.closeAll()
		<-done
		return nil
	}
}

func (b *binaryServer) acceptLoop(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !b.track(conn) {
			conn.Close() // raced shutdown
			return nil
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer b.untrack(conn)
			b.serveConn(conn)
		}()
	}
}

func (b *binaryServer) track(conn net.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.drained {
		return false
	}
	b.conns[conn] = struct{}{}
	b.connsGauge.Set(int64(len(b.conns)))
	return true
}

func (b *binaryServer) untrack(conn net.Conn) {
	conn.Close()
	b.mu.Lock()
	delete(b.conns, conn)
	b.connsGauge.Set(int64(len(b.conns)))
	b.mu.Unlock()
}

// beginDrain unblocks every connection's pending read with an expired
// deadline; handlers mid-request finish and flush before their next
// read observes it.
func (b *binaryServer) beginDrain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drained = true
	past := time.Unix(1, 0)
	for conn := range b.conns {
		conn.SetReadDeadline(past)
	}
}

func (b *binaryServer) closeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for conn := range b.conns {
		conn.Close()
	}
}

// serveConn is one connection's request loop. Frames are answered in
// arrival order; the response writer is flushed only when no further
// request is already buffered, so pipelined bursts coalesce.
func (b *binaryServer) serveConn(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	var reqBuf, respBuf []byte
	for {
		body, err := wire.ReadFrame(r, wire.MaxRequestFrame, reqBuf)
		if err != nil {
			// EOF, deadline (drain), or an oversized length prefix — the
			// stream cannot be trusted past any of them.
			w.Flush()
			return
		}
		reqBuf = body[:0]
		start := time.Now()
		b.requests.Inc()
		respBuf = b.handleFrame(respBuf[:0], body)
		b.latency.Observe(time.Since(start))
		if err := wire.WriteFrame(w, respBuf); err != nil {
			return
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// handleFrame is the binary codec: it decodes one request frame, runs
// the query core, and appends the response body onto buf. Every
// outcome — including malformed requests — produces a response frame,
// so a pipelined client never desynchronizes.
func (b *binaryServer) handleFrame(buf, body []byte) []byte {
	req, err := wire.DecodeRequest(body)
	if err != nil {
		var id uint32
		if req != nil {
			id = req.ID
		}
		b.errors.Inc()
		return wire.AppendError(buf, id, wire.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
	}
	if err := b.s.admit.acquire(context.Background()); err != nil {
		b.errors.Inc()
		return wire.AppendError(buf, req.ID, wire.StatusSaturated, err.Error())
	}
	defer b.s.admit.release()

	q := query{op: req.Op, mesh: req.Mesh, omit: req.OmitPaths(),
		src: req.Src, dst: req.Dst, flat: req.Pairs, dests: req.Dests}
	if req.MCC() {
		q.model = "mcc"
	}
	b.s.answer(&q, func(status uint8, msg string, sc *reqScratch) {
		if status != wire.StatusOK {
			b.errors.Inc()
			buf = wire.AppendError(buf, req.ID, status, msg)
			return
		}
		buf = appendAnswer(wire.AppendOKHeader(buf, req.ID), &q, sc)
	})
	return buf
}

// appendAnswer encodes a successful query's result. Route batches are
// encoded straight from the arena's results.
func appendAnswer(buf []byte, q *query, sc *reqScratch) []byte {
	switch q.op {
	case wire.OpRoute:
		return wire.AppendRoute(buf, sc.path, q.omit)
	case wire.OpHasMinimalPath, wire.OpSafe:
		if sc.ok {
			return append(buf, 1)
		}
		return append(buf, 0)
	case wire.OpEnsure:
		return wire.AppendEnsure(buf, uint8(sc.assurance.Verdict), sc.assurance.Via())
	case wire.OpRouteBatch:
		buf = wire.AppendU16(buf, uint16(len(sc.routes)))
		for _, res := range sc.routes {
			if res.Err != nil {
				buf = wire.AppendString(append(buf, 0), res.Err.Error())
			} else {
				buf = wire.AppendRoute(append(buf, 1), res.Path, q.omit)
			}
		}
		return buf
	case wire.OpHasMinimalPathBatch:
		return wire.AppendBools(buf, sc.bools)
	default: // wire.OpEnsureBatch; the core answers no other op
		buf = wire.AppendU16(buf, uint16(len(sc.assurances)))
		for i := range sc.assurances {
			buf = wire.AppendEnsure(buf, uint8(sc.assurances[i].Verdict), sc.assurances[i].Via())
		}
		return buf
	}
}
