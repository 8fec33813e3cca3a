package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"extmesh"
	"extmesh/internal/journal"
	"extmesh/internal/metrics"
	"extmesh/internal/serve"
)

// drainTimeout bounds each listener's graceful drain at teardown.
const drainTimeout = 5 * time.Second

// node is one in-process serve.Server on loopback listeners: HTTP and
// binary query planes, plus, for cluster nodes, a journal and a
// failover controller on a replication listener.
type node struct {
	srv     *serve.Server
	reg     *metrics.Registry
	store   *journal.Store
	dir     string
	httpURL string
	binAddr string
	repL    net.Listener

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newNode builds a server with its own metrics registry and binds its
// listeners; call start to serve. dir, when set, journals the registry
// there under the daemon's default fsync policy (interval).
func newNode(id, dir string) (*node, error) {
	n := &node{reg: metrics.NewRegistry(), dir: dir}
	if dir != "" {
		store, err := journal.Open(dir, journal.Options{Policy: journal.SyncInterval, Metrics: n.reg})
		if err != nil {
			return nil, err
		}
		n.store = store
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			store.Close()
			return nil, err
		}
		n.repL = l
	}
	n.srv = serve.New(serve.Options{Metrics: n.reg, Journal: n.store, NodeID: id})
	if err := n.srv.Recover(); err != nil {
		n.closeResources()
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	return n, nil
}

// start serves the HTTP and binary planes, and the failover controller
// when fo is set, until stop.
func (n *node) start(fo *serve.FailoverOptions) error {
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return err
	}
	n.httpURL = "http://" + hl.Addr().String()
	n.binAddr = bl.Addr().String()
	var f *serve.Failover
	if fo != nil {
		fo.Listener = n.repL
		if f, err = serve.NewFailover(n.srv, *fo); err != nil {
			hl.Close()
			bl.Close()
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	hs := &http.Server{Handler: n.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	n.wg.Add(2)
	go func() { defer n.wg.Done(); serve.Serve(ctx, hs, hl, drainTimeout) }()
	go func() { defer n.wg.Done(); n.srv.ServeBinary(ctx, bl, drainTimeout) }()
	if f != nil {
		n.wg.Add(1)
		go func() { defer n.wg.Done(); f.Run(ctx) }()
	}
	return nil
}

// stop drains every plane, waits for their goroutines, and releases
// the journal and its directory.
func (n *node) stop() {
	if n.cancel != nil {
		n.cancel()
		n.wg.Wait()
		n.cancel = nil
	}
	n.closeResources()
}

func (n *node) closeResources() {
	if n.repL != nil {
		n.repL.Close()
	}
	if n.store != nil {
		n.store.Close()
		n.store = nil
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// counter reads one of the node's counters.
func (n *node) counter(name string) uint64 { return n.reg.Counter(name).Value() }

// newMesh builds a live mesh carrying the given faults.
func newMesh(faults []extmesh.Coord) (*extmesh.DynamicNetwork, error) {
	d, err := extmesh.NewDynamic(meshSide, meshSide)
	if err != nil {
		return nil, err
	}
	for _, c := range faults {
		if err := d.AddFault(c); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// standalone starts a single memory-only node serving one mesh with
// the given faults.
func standalone(faults []extmesh.Coord) (*node, *extmesh.DynamicNetwork, error) {
	d, err := newMesh(faults)
	if err != nil {
		return nil, nil, err
	}
	n, err := newNode("", "")
	if err != nil {
		return nil, nil, err
	}
	if err := n.srv.RegisterMesh(meshName, d); err != nil {
		n.stop()
		return nil, nil, err
	}
	if err := n.start(nil); err != nil {
		n.stop()
		return nil, nil, err
	}
	return n, d, nil
}

// waitFor polls cond every millisecond until it holds or timeout
// passes.
func waitFor(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// pipeListener is an in-memory net.Listener: dial hands the server one
// end of a net.Pipe, so the binary plane can be driven without a
// socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errors.New("pipe listener closed")
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
