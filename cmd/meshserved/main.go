// Command meshserved is the routing-as-a-service daemon: it serves
// extmesh query and fault-admin endpoints over HTTP for a set of named
// live meshes. Meshes can be preloaded from -mesh specs, created over
// the API, or uploaded as network blobs; /metrics and /debug/vars
// expose counters, gauges, and latency histograms; an admission gate
// sheds load with 429 once the configured concurrency and queue are
// exhausted; SIGINT/SIGTERM triggers a graceful drain. POST
// /v1/reliability runs Monte Carlo survivability sweeps behind a
// separate concurrency gate with a cost budget (413 beyond it, 429
// when every sweep slot is busy).
//
// With -data-dir the registry is durable: every mutation is appended
// to a CRC-framed journal before it is acknowledged, snapshots compact
// the journal periodically, and on boot the daemon replays
// snapshot+journal — answering /readyz with 503 until recovery
// completes — so a kill -9 mid-traffic loses nothing that was
// acknowledged. A graceful drain writes a final snapshot.
//
// With -binary-addr a second listener serves the query plane over the
// length-prefixed binary wire protocol (pipelined persistent
// connections, same answers as the JSON endpoints at a fraction of the
// per-query cost); see meshclient.BinaryClient.
//
// With -replication-addr a journaled daemon also serves its journal to
// read replicas over a CRC-framed TCP stream; a daemon started with
// -replicate-from follows a primary instead, applying the stream
// through the same deterministic journal replay as crash recovery and
// answering queries read-only (mutations get 403). GET /replication
// reports the node's role, sequence number and follower lag.
//
// With -peers (alongside -replication-addr and -data-dir) the node
// joins a failover cluster: followers that lose the primary past
// -failover-timeout promote themselves by durably bumping the cluster
// epoch, the epoch fences the old primary out of every write path, and
// a SIGTERM'd primary says goodbye so its followers fail over
// immediately. Exactly one fresh-cluster node omits -replicate-from
// and starts as the primary; the rest name it (or discover it) and
// start as followers. See DESIGN.md §17.
//
// Usage:
//
//	meshserved [-addr :8423] [-binary-addr :8424]
//	           [-mesh name:WxH[:faults[:seed]]]...
//	           [-replication-addr :8425 | -replicate-from host:8425]
//	           [-peers host2:8425,host3:8425] [-failover-timeout 2s]
//	           [-node-id n1] [-failover-rank 0] [-rep-heartbeat 500ms]
//	           [-data-dir DIR] [-fsync always|interval|never]
//	           [-fsync-interval 100ms] [-snapshot-every 4096]
//	           [-max-inflight 0] [-max-queue 0] [-queue-wait 100ms]
//	           [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	           [-drain-timeout 15s] [-quiet]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Example:
//
//	meshserved -addr :8423 -data-dir /var/lib/meshserved -mesh prod:200x200:40:1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"extmesh"
	"extmesh/internal/cli"
	"extmesh/internal/fault"
	"extmesh/internal/journal"
	"extmesh/internal/mesh"
	"extmesh/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshserved:", err)
		os.Exit(1)
	}
}

// meshSpecs collects repeatable -mesh flags.
type meshSpecs []string

func (m *meshSpecs) String() string     { return strings.Join(*m, ",") }
func (m *meshSpecs) Set(s string) error { *m = append(*m, s); return nil }

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshserved", flag.ContinueOnError)
	var specs meshSpecs
	var (
		addr         = fs.String("addr", ":8423", "listen address")
		binaryAddr   = fs.String("binary-addr", "", "binary query protocol listen address (empty = disabled)")
		maxInflight  = fs.Int("max-inflight", 0, "max concurrently executing requests (0 = 4*GOMAXPROCS)")
		maxQueue     = fs.Int("max-queue", 0, "max requests queued for a slot (0 = 4*max-inflight)")
		queueWait    = fs.Duration("queue-wait", 100*time.Millisecond, "max time a request waits in queue before a 429")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "HTTP idle connection timeout")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline for in-flight requests")
		quiet        = fs.Bool("quiet", false, "disable per-request access logging")
		dataDir      = fs.String("data-dir", "", "durable state directory (empty = memory only)")
		repAddr      = fs.String("replication-addr", "", "journal replication listener for read replicas (requires -data-dir)")
		repFrom      = fs.String("replicate-from", "", "primary replication address to follow as a read-only replica (requires -data-dir)")
		peers        = fs.String("peers", "", "comma-separated peer replication addresses; enables automatic failover (requires -replication-addr and -data-dir)")
		failTimeout  = fs.Duration("failover-timeout", 2*time.Second, "failover deadline: followers promote after this much primary silence, a primary without acks fences itself")
		failRank     = fs.Int("failover-rank", 0, "candidacy stagger rank; give each cluster node a distinct small integer")
		repBeat      = fs.Duration("rep-heartbeat", 500*time.Millisecond, "primary-to-replica heartbeat interval; keep -failover-timeout at least 4x this")
		nodeID       = fs.String("node-id", "", "cluster node identity for status and failover tie-breaks (default: the replication address)")
		fsyncPolicy  = fs.String("fsync", "interval", "journal fsync policy: always, interval or never")
		fsyncEvery   = fs.Duration("fsync-interval", 100*time.Millisecond, "max unsynced window under -fsync interval")
		snapEvery    = fs.Int("snapshot-every", 4096, "journal records between snapshot compactions")
		prof         = cli.ProfileFlags(fs)
	)
	fs.Var(&specs, "mesh", "preload mesh, repeatable: name:WxH[:faults[:seed]] (e.g. prod:200x200:40:1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*repAddr != "" || *repFrom != "") && *dataDir == "" {
		return fmt.Errorf("-replication-addr and -replicate-from require -data-dir")
	}
	if *repAddr != "" && *repFrom != "" && *peers == "" {
		// In a failover cluster every node both serves its journal and
		// may follow; standalone replication keeps the one-hop shape.
		return fmt.Errorf("-replication-addr and -replicate-from are mutually exclusive without -peers (chained replication is not supported)")
	}
	if *peers != "" && (*repAddr == "" || *dataDir == "") {
		return fmt.Errorf("-peers requires -replication-addr and -data-dir")
	}
	if *repFrom != "" && len(specs) > 0 {
		// A replica's state comes from the primary's journal; a local
		// preload would assign sequence numbers that collide with the
		// replicated stream.
		return fmt.Errorf("-mesh preload specs cannot be combined with -replicate-from")
	}

	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	logger := log.New(out, "", log.LstdFlags|log.Lmicroseconds)
	var accessLog *log.Logger
	if !*quiet {
		accessLog = logger
	}
	var store *journal.Store
	if *dataDir != "" {
		policy, err := journal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		store, err = journal.Open(*dataDir, journal.Options{
			Policy:       policy,
			Interval:     *fsyncEvery,
			CompactEvery: *snapEvery,
		})
		if err != nil {
			return err
		}
		defer store.Close()
	}

	id := *nodeID
	if id == "" {
		id = *repAddr
	}
	srv := serve.New(serve.Options{
		MaxInFlight:  *maxInflight,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		Log:          accessLog,
		Journal:      store,
		NodeID:       id,
		RepHeartbeat: *repBeat,
	})
	if store != nil {
		start := time.Now()
		if err := srv.Recover(); err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		logger.Printf("recovered %d meshes from %s in %s (journal seq %d)",
			len(srv.Meshes().Names()), *dataDir, time.Since(start).Round(time.Millisecond), store.Seq())
	}

	for _, spec := range specs {
		name, d, err := buildMesh(spec)
		if err != nil {
			return fmt.Errorf("-mesh %q: %w", spec, err)
		}
		// A recovered mesh outranks its preload spec: the journal holds
		// the acknowledged history, the spec only the original seed.
		if srv.Meshes().Get(name) != nil {
			logger.Printf("mesh %q already recovered from journal, ignoring -mesh spec", name)
			continue
		}
		if err := srv.RegisterMesh(name, d); err != nil {
			return err
		}
		logger.Printf("preloaded mesh %q: %dx%d, %d faults", name, d.Width(), d.Height(), d.FaultCount())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:      srv.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
		ErrorLog:     logger,
	}
	// All serving planes — HTTP, binary, replication — share one derived
	// context: when any of them exits (signal, listener failure), the
	// others drain too. Without this, a SIGTERM that stopped the HTTP
	// plane could leave the binary listener's persistent connections (or
	// a replication stream) alive past the graceful drain.
	srvCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	// The binary query listener shares the registry, snapshots and
	// admission gate with the HTTP surface; mutations stay HTTP-only.
	binErrc := make(chan error, 1)
	if *binaryAddr != "" {
		bl, err := net.Listen("tcp", *binaryAddr)
		if err != nil {
			return fmt.Errorf("binary listener: %w", err)
		}
		logger.Printf("binary protocol on %s", bl.Addr())
		go func() {
			binErrc <- srv.ServeBinary(srvCtx, bl, *drainTimeout)
			cancelAll()
		}()
	} else {
		binErrc <- nil
	}
	// Replication: either serve followers (primary) or follow a primary
	// (read-only replica).
	repErrc := make(chan error, 1)
	switch {
	case *peers != "":
		rl, err := net.Listen("tcp", *repAddr)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		fo, err := serve.NewFailover(srv, serve.FailoverOptions{
			Listener:     rl,
			Peers:        strings.Split(*peers, ","),
			StartPrimary: *repFrom == "",
			Source:       *repFrom,
			Timeout:      *failTimeout,
			Rank:         *failRank,
			Log:          logger,
		})
		if err != nil {
			return err
		}
		role := "follower"
		if *repFrom == "" {
			role = "primary"
		}
		logger.Printf("failover cluster: node %q on %s as %s, peers %s, timeout %s",
			id, rl.Addr(), role, *peers, *failTimeout)
		go func() {
			repErrc <- fo.Run(srvCtx)
			cancelAll()
		}()
	case *repAddr != "":
		rl, err := net.Listen("tcp", *repAddr)
		if err != nil {
			return fmt.Errorf("replication listener: %w", err)
		}
		logger.Printf("replication on %s", rl.Addr())
		go func() {
			repErrc <- srv.ServeReplication(srvCtx, rl)
			cancelAll()
		}()
	case *repFrom != "":
		rep := serve.NewReplica(srv, serve.ReplicaOptions{Source: *repFrom})
		logger.Printf("following primary at %s (read-only replica)", *repFrom)
		go func() {
			repErrc <- rep.Run(srvCtx)
			cancelAll()
		}()
	default:
		repErrc <- nil
	}
	logger.Printf("serving on %s (%d meshes)", l.Addr(), len(srv.Meshes().Names()))
	err = serve.Serve(srvCtx, httpSrv, l, *drainTimeout)
	cancelAll() // HTTP exit drains the binary and replication planes too
	binErr := <-binErrc
	repErr := <-repErrc
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if binErr != nil {
		return fmt.Errorf("binary listener: %w", binErr)
	}
	if repErr != nil && !errors.Is(repErr, context.Canceled) {
		return fmt.Errorf("replication: %w", repErr)
	}
	if store != nil {
		// A final snapshot makes the next boot replay-free.
		if err := srv.Checkpoint(); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		logger.Printf("final snapshot written to %s", *dataDir)
	}
	logger.Printf("drained, exiting")
	return nil
}

// buildMesh parses a preload spec "name:WxH[:faults[:seed]]" and
// constructs the mesh with that many uniformly random faults.
func buildMesh(spec string) (string, *extmesh.DynamicNetwork, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 4 {
		return "", nil, fmt.Errorf("want name:WxH[:faults[:seed]]")
	}
	name := parts[0]
	dims := strings.SplitN(parts[1], "x", 2)
	if len(dims) != 2 {
		return "", nil, fmt.Errorf("dimensions %q: want WxH", parts[1])
	}
	w, err := strconv.Atoi(dims[0])
	if err != nil {
		return "", nil, fmt.Errorf("width %q: %w", dims[0], err)
	}
	h, err := strconv.Atoi(dims[1])
	if err != nil {
		return "", nil, fmt.Errorf("height %q: %w", dims[1], err)
	}
	k := 0
	if len(parts) >= 3 {
		if k, err = strconv.Atoi(parts[2]); err != nil {
			return "", nil, fmt.Errorf("fault count %q: %w", parts[2], err)
		}
	}
	var seed int64 = 1
	if len(parts) == 4 {
		if seed, err = strconv.ParseInt(parts[3], 10, 64); err != nil {
			return "", nil, fmt.Errorf("seed %q: %w", parts[3], err)
		}
	}

	d, err := extmesh.NewDynamic(w, h)
	if err != nil {
		return "", nil, err
	}
	if k > 0 {
		faults, err := fault.RandomFaults(mesh.Mesh{Width: w, Height: h}, k, rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			return "", nil, err
		}
		for _, c := range faults {
			if err := d.AddFault(c); err != nil {
				return "", nil, err
			}
		}
	}
	return name, d, nil
}
