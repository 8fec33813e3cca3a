package meshclient

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"extmesh"
	"extmesh/internal/wire"
)

// BinaryOptions configures a BinaryClient.
type BinaryOptions struct {
	// Addr is the daemon's binary listener, e.g. "localhost:8424".
	Addr string
	// DialTimeout bounds connection establishment; 0 selects 2s.
	DialTimeout time.Duration
	// CallTimeout bounds one call's write-plus-read on the wire;
	// 0 selects 30s. The caller's context can end a call sooner only
	// between attempts (the protocol is synchronous per connection).
	CallTimeout time.Duration
	// MaxRetries is how many times a transport-failed call is replayed
	// on a fresh connection (total attempts = MaxRetries+1); 0 selects
	// 2, negative disables retries. Every binary operation is a query,
	// so replays are always safe.
	MaxRetries int
}

func (o BinaryOptions) withDefaults() BinaryOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	return o
}

// BinaryClient speaks the binary query protocol (internal/wire) over
// one persistent connection: length-prefixed frames, no per-request
// HTTP or JSON cost. Calls are synchronous and serialized per client —
// drive one BinaryClient per worker for parallel load (a dial is far
// cheaper than the queries it amortizes). A transport failure closes
// the connection and the call is replayed on a fresh dial, so a
// restarted or chaos-disrupted server costs a reconnect, not an error.
//
// The binary surface covers the query plane only (routes, conditions,
// existence, batches) with the server's default strategy; lifecycle
// and fault admin stay on the JSON Client.
type BinaryClient struct {
	opts BinaryOptions

	mu     sync.Mutex
	conn   net.Conn
	nextID uint32
	reqBuf []byte
	frame  []byte
}

// NewBinary assembles a binary client for the daemon listener at
// opts.Addr. The connection is dialed lazily on first call.
func NewBinary(opts BinaryOptions) (*BinaryClient, error) {
	opts = opts.withDefaults()
	if _, _, err := net.SplitHostPort(opts.Addr); err != nil {
		return nil, fmt.Errorf("meshclient: invalid binary address %q: %v", opts.Addr, err)
	}
	return &BinaryClient{opts: opts}, nil
}

// Close tears down the connection; in-flight calls fail.
func (c *BinaryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// roundTrip performs one request/response exchange with reconnect
// retries. A server error status is returned as *APIError and never
// retried except saturation (shed before any work, like HTTP 429).
func (c *BinaryClient) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	maxAttempts := 1 + c.opts.MaxRetries
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := c.exchangeLocked(req)
		if err == nil {
			if resp.Status == wire.StatusOK {
				return resp, nil
			}
			apiErr := &APIError{Status: wire.HTTPStatus(resp.Status), Message: resp.Err}
			if resp.Status != wire.StatusSaturated || attempt == maxAttempts-1 {
				return resp, apiErr
			}
			lastErr = apiErr
			continue
		}
		lastErr = err
	}
	return nil, lastErr
}

// exchangeLocked writes one frame and reads its response on the held
// connection, dialing as needed; any failure closes the connection so
// the next attempt starts clean.
func (c *BinaryClient) exchangeLocked(req *wire.Request) (*wire.Response, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.opts.Addr, c.opts.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("meshclient: dial binary: %w", err)
		}
		c.conn = conn
	}
	fail := func(err error) (*wire.Response, error) {
		c.conn.Close()
		c.conn = nil
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout)); err != nil {
		return fail(fmt.Errorf("meshclient: %w", err))
	}
	c.reqBuf = wire.AppendRequest(c.reqBuf[:0], req)
	if err := wire.WriteFrame(c.conn, c.reqBuf); err != nil {
		return fail(fmt.Errorf("meshclient: write frame: %w", err))
	}
	body, err := wire.ReadFrame(c.conn, wire.MaxResponseFrame, c.frame)
	if err != nil {
		return fail(fmt.Errorf("meshclient: read frame: %w", err))
	}
	c.frame = body[:0]
	resp, err := wire.DecodeResponse(body, req.Op)
	if err != nil {
		return fail(fmt.Errorf("meshclient: %w", err))
	}
	if resp.ID != req.ID {
		// The stream answered some other request: a desynchronized or
		// half-restarted connection. Drop it.
		return fail(fmt.Errorf("meshclient: response id %d for request %d", resp.ID, req.ID))
	}
	return resp, nil
}

// flags converts a model name and the path option to request flags,
// parsing the model exactly as the server's JSON plane does.
func flags(model string, omitPaths bool) (uint8, error) {
	f, err := wire.ParseModel(model)
	if err != nil {
		return 0, fmt.Errorf("meshclient: %w", err)
	}
	if omitPaths {
		f |= wire.FlagOmitPaths
	}
	return f, nil
}

// single performs a single-pair op, rejecting options the binary
// protocol cannot express.
func (c *BinaryClient) single(ctx context.Context, op uint8, mesh string, q Query) (*wire.Response, error) {
	if q.Strategy != nil {
		return nil, fmt.Errorf("meshclient: the binary protocol supports the server's default strategy only")
	}
	f, err := flags(q.Model, q.OmitPath)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(ctx, &wire.Request{Op: op, Flags: f, Mesh: mesh, Src: q.Src, Dst: q.Dst})
}

// assurance names a wire verdict exactly like the JSON plane does.
func assurance(e wire.EnsureResult) Assurance {
	return Assurance{Verdict: extmesh.Verdict(e.Verdict).String(), Via: e.Via, Hops: -1}
}

// Route asks for a Wu-protocol route over the binary transport.
func (c *BinaryClient) Route(ctx context.Context, mesh string, q Query) (*RouteResult, error) {
	resp, err := c.single(ctx, wire.OpRoute, mesh, q)
	if err != nil {
		return nil, err
	}
	return &RouteResult{Hops: resp.Hops, Path: resp.Path}, nil
}

// Safe evaluates the Theorem-1 condition over the binary transport.
func (c *BinaryClient) Safe(ctx context.Context, mesh string, q Query) (bool, error) {
	resp, err := c.single(ctx, wire.OpSafe, mesh, q)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// Ensure runs the default strategy cascade over the binary transport.
func (c *BinaryClient) Ensure(ctx context.Context, mesh string, q Query) (*Assurance, error) {
	resp, err := c.single(ctx, wire.OpEnsure, mesh, q)
	if err != nil {
		return nil, err
	}
	a := assurance(resp.Ensure)
	return &a, nil
}

// HasMinimalPath asks the exact existence question over the binary
// transport.
func (c *BinaryClient) HasMinimalPath(ctx context.Context, mesh string, q Query) (bool, error) {
	resp, err := c.single(ctx, wire.OpHasMinimalPath, mesh, q)
	if err != nil {
		return false, err
	}
	return resp.Bool, nil
}

// RouteBatch routes many pairs in one frame.
func (c *BinaryClient) RouteBatch(ctx context.Context, mesh string, pairs []Pair, model string, omitPaths bool) ([]BatchRouteResult, error) {
	f, err := flags(model, omitPaths)
	if err != nil {
		return nil, err
	}
	flat := make([]extmesh.Coord, 0, 2*len(pairs))
	for _, p := range pairs {
		flat = append(flat, p.Src, p.Dst)
	}
	resp, err := c.roundTrip(ctx, &wire.Request{
		Op: wire.OpRouteBatch, Flags: f, Mesh: mesh, Pairs: flat,
	})
	if err != nil {
		return nil, err
	}
	out := make([]BatchRouteResult, len(resp.Routes))
	for i, r := range resp.Routes {
		if !r.OK {
			out[i] = BatchRouteResult{Hops: -1, Error: r.Err}
			continue
		}
		out[i] = BatchRouteResult{Hops: r.Hops, Path: r.Path}
	}
	return out, nil
}

// HasMinimalPathBatch answers existence for many destinations from one
// frame and one server-side sweep.
func (c *BinaryClient) HasMinimalPathBatch(ctx context.Context, mesh string, src extmesh.Coord, dests []extmesh.Coord) ([]bool, error) {
	resp, err := c.roundTrip(ctx, &wire.Request{
		Op: wire.OpHasMinimalPathBatch, Mesh: mesh, Src: src, Dests: dests,
	})
	if err != nil {
		return nil, err
	}
	return resp.Bits, nil
}

// EnsureBatch fans one source against many destinations with the
// server's default strategy.
func (c *BinaryClient) EnsureBatch(ctx context.Context, mesh string, src extmesh.Coord, dests []extmesh.Coord, model string) ([]Assurance, error) {
	f, err := flags(model, false)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, &wire.Request{
		Op: wire.OpEnsureBatch, Flags: f, Mesh: mesh, Src: src, Dests: dests,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Assurance, len(resp.Ensures))
	for i, e := range resp.Ensures {
		out[i] = assurance(e)
	}
	return out, nil
}
