// Package serve is the routing-as-a-service layer: an HTTP surface
// over named live meshes (extmesh.DynamicNetwork) exposing the query
// plane — single and batch route/condition/existence queries answered
// from version-memoized snapshots — plus fault-injection admin
// endpoints and production plumbing: per-endpoint metrics, request
// logging with IDs, bounded-concurrency admission control with 429
// load shedding, and graceful drain.
//
// The service is deliberately stateless per request, mirroring the
// paper's limited-global-information model: every query is answered
// from the per-mesh shared state (safety levels, reach caches,
// routers), never from per-client session state, so instances scale
// horizontally behind any load balancer.
//
// # Endpoints
//
//	GET    /healthz                              liveness
//	GET    /readyz                               readiness (503 until journal recovery completes)
//	GET    /metrics                              text exposition
//	GET    /debug/vars                           expvar (includes the "extmesh" map)
//	GET    /replication                          replication role, lag and follower status
//	POST   /v1/mesh                              create {name,width,height,faults}
//	GET    /v1/mesh                              list
//	GET    /v1/mesh/{name}                       info + fault list (export blob)
//	PUT    /v1/mesh/{name}                       create/replace from a network blob
//	DELETE /v1/mesh/{name}                       remove
//	POST   /v1/mesh/{name}/route                 Wu-protocol route
//	POST   /v1/mesh/{name}/route-assured         Ensure + two-phase route
//	POST   /v1/mesh/{name}/safe                  Theorem-1 safe condition
//	POST   /v1/mesh/{name}/ensure                strategy cascade verdict
//	POST   /v1/mesh/{name}/has-minimal-path      exact existence
//	POST   /v1/mesh/{name}/route/batch           RouteMany worker-pool batch
//	POST   /v1/mesh/{name}/ensure/batch          EnsureAll batch
//	POST   /v1/mesh/{name}/has-minimal-path/batch  one sweep, many destinations
//	POST   /v1/mesh/{name}/faults                apply fail/recover events (admin)
//	GET    /v1/mesh/{name}/stats                 reach-cache hit rates, vitals, sweep counters
//	POST   /v1/reliability                       Monte Carlo survivability sweep
package serve

import (
	"context"
	"expvar"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"extmesh/internal/journal"
	"extmesh/internal/metrics"
	"extmesh/internal/wire"
)

// Options configures a Server. The zero value serves with defaults.
type Options struct {
	// MaxInFlight bounds concurrently executing /v1 requests;
	// 0 selects 4*GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxInFlight; 0 selects 4*MaxInFlight. Requests beyond the queue
	// are shed immediately with 429.
	MaxQueue int
	// QueueWait bounds how long a queued request waits before being
	// shed with 429; 0 selects 100ms.
	QueueWait time.Duration
	// Log receives one access-log line per request; nil disables
	// request logging.
	Log *log.Logger
	// Metrics is the instrument registry; nil selects the process-wide
	// default (which the library hot paths already feed).
	Metrics *metrics.Registry
	// Journal, when non-nil, makes every registry mutation durable:
	// mesh creations, uploads and deletions, and fault batches are
	// appended to the store before the response
	// acknowledges them. The server starts not-ready; call Recover
	// (which replays the store into the registry) before serving.
	Journal *journal.Store
	// MaxSweeps bounds concurrently executing /v1/reliability sweeps —
	// a separate, much smaller gate than MaxInFlight, because one sweep
	// is minutes of CPU where a route query is microseconds. Requests
	// beyond it are shed with 429; 0 selects 2.
	MaxSweeps int
	// ReliabilityMaxCost caps the work of one accepted sweep, in the
	// cost units of reliability.Config.Cost (trials times per-trial
	// work). Costlier requests are rejected with 413; 0 selects 1<<28.
	ReliabilityMaxCost int64
	// NodeID names this node in cluster status and failover tie-breaks.
	// Empty is fine for standalone servers; failover-managed nodes need
	// distinct IDs (the daemon defaults it to the replication address).
	NodeID string
	// RepHeartbeat is the primary→replica heartbeat interval; 0 selects
	// 500ms. Failover tests shrink it so sub-second deadlines work.
	RepHeartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 100 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = metrics.Default()
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 2
	}
	if o.ReliabilityMaxCost <= 0 {
		o.ReliabilityMaxCost = 1 << 28
	}
	if o.RepHeartbeat <= 0 {
		o.RepHeartbeat = repHeartbeatEvery
	}
	return o
}

// Cluster roles. roleAuto preserves the pre-failover behavior: the
// role is derived from whether the node streams (primary) or follows
// (replica). The failover controller pins an explicit role and flips
// it on promotion/demotion.
const (
	roleAuto int32 = iota
	rolePrimary
	roleFollower
)

// Server is the meshserved request handler: the mesh registry, the
// admission gate and the endpoint mux.
type Server struct {
	opts    Options
	meshes  *Registry
	metrics *metrics.Registry
	admit   *admission
	sweeps  *sweepGate
	persist *persister
	ready   atomic.Bool
	handler http.Handler

	// journalSeq is the last durably applied sequence number — appended
	// on a primary, replicated on a replica. Every /v1 response carries
	// it as X-Journal-Seq so cluster clients can bound read staleness.
	journalSeq atomic.Uint64
	// readOnly rejects registry mutations with 403 — the replica mode,
	// where the only legal write path is the replication stream.
	readOnly atomic.Bool
	// epoch is the cluster epoch: monotonic, bumped by serve.Promote,
	// persisted as an OpEpoch journal record, stamped on every
	// replication frame and /v1 response (X-Cluster-Epoch). Writes and
	// frames from an older epoch are fenced.
	epoch atomic.Uint64
	// role is the failover-pinned cluster role (roleAuto outside
	// failover-managed clusters).
	role atomic.Int32
	// fenced rejects writes on a primary that has lost its follower
	// lease: with no follower able to acknowledge replication, an
	// acknowledged write could be silently discarded by a later
	// promotion, so the node refuses to acknowledge at all.
	fenced atomic.Bool
	// clientNudge is the unix-nano time of the last failover nudge
	// driven by a client's X-Cluster-Epoch header. The header is
	// unauthenticated, so nudges on that evidence alone are rate
	// limited — an attacker sending inflated epochs gets 409s but
	// cannot keep the prober spinning.
	clientNudge atomic.Int64

	hub      *repHub
	replica  atomic.Pointer[Replica]
	failover atomic.Pointer[Failover]

	epochGauge   *metrics.Gauge
	fencedGauge  *metrics.Gauge
	promotions   *metrics.Counter
	fencedWrites *metrics.Counter
}

// New assembles a server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		metrics: opts.Metrics,
		meshes:  NewRegistry(opts.Metrics),
		admit:   newAdmission(opts.MaxInFlight, opts.MaxQueue, opts.QueueWait, opts.Metrics),
		sweeps:  newSweepGate(opts.MaxSweeps, opts.Metrics),
	}
	s.epochGauge = opts.Metrics.Gauge("cluster_epoch")
	s.fencedGauge = opts.Metrics.Gauge("cluster_fenced")
	s.promotions = opts.Metrics.Counter("cluster_promotions_total")
	s.fencedWrites = opts.Metrics.Counter("cluster_fenced_writes_total")
	s.persist = &persister{
		store:   opts.Journal,
		reg:     s.meshes,
		noteSeq: s.journalSeq.Store,
		subs:    make(map[*repSub]struct{}),
	}
	s.hub = newRepHub(s)
	// A journaled server is not ready until Recover has replayed the
	// store; a memory-only server has nothing to recover.
	s.ready.Store(opts.Journal == nil)
	s.metrics.PublishExpvar()

	mux := http.NewServeMux()
	// Operational endpoints bypass admission: a saturated server must
	// still answer health checks and publish its saturation.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.metrics.WriteText(w)
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /replication", s.handleReplicationStatus)

	// Query and admin endpoints: metrics per endpoint, one shared
	// admission gate. Innermost, every response is stamped with the
	// durable sequence number it was answered at.
	v1 := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.Handle(pattern, instrument(s.metrics, endpoint, s.admit.wrap(s.stampSeq(h))))
	}
	v1("POST /v1/mesh", "mesh_create", s.handleCreateMesh)
	v1("GET /v1/mesh", "mesh_list", s.handleListMeshes)
	v1("GET /v1/mesh/{name}", "mesh_get", s.handleGetMesh)
	v1("PUT /v1/mesh/{name}", "mesh_upload", s.handleUploadMesh)
	v1("DELETE /v1/mesh/{name}", "mesh_delete", s.handleDeleteMesh)
	v1("POST /v1/mesh/{name}/route", "route", s.handleQuery(wire.OpRoute))
	v1("POST /v1/mesh/{name}/route-assured", "route_assured", s.handleQuery(opRouteAssured))
	v1("POST /v1/mesh/{name}/safe", "safe", s.handleQuery(wire.OpSafe))
	v1("POST /v1/mesh/{name}/ensure", "ensure", s.handleQuery(wire.OpEnsure))
	v1("POST /v1/mesh/{name}/has-minimal-path", "has_minimal_path", s.handleQuery(wire.OpHasMinimalPath))
	v1("POST /v1/mesh/{name}/route/batch", "route_batch", s.handleQuery(wire.OpRouteBatch))
	v1("POST /v1/mesh/{name}/ensure/batch", "ensure_batch", s.handleQuery(wire.OpEnsureBatch))
	v1("POST /v1/mesh/{name}/has-minimal-path/batch", "has_minimal_path_batch", s.handleQuery(wire.OpHasMinimalPathBatch))
	v1("POST /v1/mesh/{name}/faults", "faults", s.handleFaults)
	v1("GET /v1/mesh/{name}/stats", "stats", s.handleStats)
	v1("POST /v1/reliability", "reliability", s.handleReliability)

	s.handler = logging(opts.Log, mux)
	return s
}

// Handler returns the fully assembled middleware chain.
func (s *Server) Handler() http.Handler { return s.handler }

// Meshes exposes the registry, so tests can seed fixtures directly.
// Meshes registered this way bypass the journal; durable registration
// goes through RegisterMesh.
func (s *Server) Meshes() *Registry { return s.meshes }

// SetReady flips the /readyz verdict. Recover calls it on completion;
// it is exported for daemons with additional boot phases.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports whether /readyz currently answers 200.
func (s *Server) Ready() bool { return s.ready.Load() }

// SetReadOnly flips replica mode: mutations answer 403 and clients are
// pointed at the primary. Queries are unaffected.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether mutations are currently rejected.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// JournalSeq returns the last durably applied sequence number — the
// value /v1 responses carry as X-Journal-Seq.
func (s *Server) JournalSeq() uint64 { return s.journalSeq.Load() }

// Epoch returns the current cluster epoch — the value /v1 responses
// carry as X-Cluster-Epoch and every replication frame is stamped with.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// setEpoch raises the cluster epoch; it never regresses.
func (s *Server) setEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			s.epochGauge.Set(int64(e))
			return
		}
	}
}

// NodeID returns this node's cluster identity.
func (s *Server) NodeID() string { return s.opts.NodeID }

// Fenced reports whether writes are currently lease-fenced.
func (s *Server) Fenced() bool { return s.fenced.Load() }

func (s *Server) setFenced(f bool) {
	if s.fenced.Swap(f) != f {
		if f {
			s.fencedGauge.Set(1)
		} else {
			s.fencedGauge.Set(0)
		}
	}
}

// roleString names the node's current cluster role: the explicit
// failover-pinned role when one is set, otherwise derived from whether
// the node follows a primary or streams to followers.
func (s *Server) roleString() string {
	switch s.role.Load() {
	case rolePrimary:
		return "primary"
	case roleFollower:
		return "replica"
	}
	if s.replica.Load() != nil {
		return "replica"
	}
	s.hub.mu.Lock()
	serving := s.hub.serving
	s.hub.mu.Unlock()
	if serving {
		return "primary"
	}
	return "single"
}

// acceptsFollowers reports whether this node may stream records to
// followers: in a failover-managed cluster only the pinned primary
// may; outside one, running ServeReplication is the primary claim.
func (s *Server) acceptsFollowers() bool {
	if s.failover.Load() != nil {
		return s.role.Load() == rolePrimary
	}
	return true
}

// seqWriter stamps X-Journal-Seq at write time (not at dispatch time),
// so a mutation's response carries the sequence number of the mutation
// it just journaled — the watermark cluster clients bound staleness by.
type seqWriter struct {
	http.ResponseWriter
	s       *Server
	stamped bool
}

func (w *seqWriter) stamp() {
	if !w.stamped {
		w.stamped = true
		w.Header().Set("X-Journal-Seq", strconv.FormatUint(w.s.journalSeq.Load(), 10))
		w.Header().Set("X-Cluster-Epoch", strconv.FormatUint(w.s.epoch.Load(), 10))
	}
}

func (w *seqWriter) WriteHeader(code int) {
	w.stamp()
	w.ResponseWriter.WriteHeader(code)
}

func (w *seqWriter) Write(p []byte) (int, error) {
	w.stamp()
	return w.ResponseWriter.Write(p)
}

func (s *Server) stampSeq(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		next(&seqWriter{ResponseWriter: w, s: s}, r)
	}
}

// Serve runs srv on l until ctx is canceled, then drains gracefully:
// the listener closes (new connections are refused), in-flight
// requests get up to drainTimeout to complete, and only then are
// stragglers cut off. It returns nil on a clean drain, the serve error
// if the listener failed first, and the shutdown error if the drain
// timed out.
func Serve(ctx context.Context, srv *http.Server, l net.Listener, drainTimeout time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err // listener failed before shutdown was requested
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return err
	}
	<-errc // srv.Serve has returned http.ErrServerClosed
	return nil
}
