package main

import (
	"context"
	"fmt"
	"time"

	"extmesh"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// routeBatchWL is route_batch_binary: k=200, one closed-loop client per
// load goroutine, each with its own BinaryClient, sending RouteBatch
// frames of 64 random healthy pairs, block model, hop counts only.
type routeBatchWL struct {
	cfg     config
	faults  []extmesh.Coord
	batches [][]meshclient.Pair

	node    *node
	d       *extmesh.DynamicNetwork
	clients []*meshclient.BinaryClient
	next    []int
	recs    [][]answerRec
}

const (
	routeBatchK     = 200
	routeBatchPairs = 64
	routeBatchPool  = 4096
)

func newRouteBatch(cfg config) (*routeBatchWL, error) {
	faults, err := randomFaults(cfg.Seed, routeBatchK)
	if err != nil {
		return nil, err
	}
	net, err := extmesh.New(meshSide, meshSide, faults)
	if err != nil {
		return nil, err
	}
	return &routeBatchWL{cfg: cfg, faults: faults, batches: routeBatches(cfg.Seed, healthyNodes(net))}, nil
}

// routeBatches draws the workload's pool of batches.
func routeBatches(seed int64, nodes []extmesh.Coord) [][]meshclient.Pair {
	pairs := uniformPairs(rng(seed, streamPairs), nodes, routeBatchPool*routeBatchPairs)
	out := make([][]meshclient.Pair, routeBatchPool)
	for b := range out {
		out[b] = make([]meshclient.Pair, routeBatchPairs)
		for i := range out[b] {
			p := pairs[b*routeBatchPairs+i]
			out[b][i] = meshclient.Pair{Src: p.Src, Dst: p.Dst}
		}
	}
	return out
}

func (w *routeBatchWL) setup() error {
	var err error
	if w.node, w.d, err = standalone(w.faults); err != nil {
		return err
	}
	w.clients = make([]*meshclient.BinaryClient, w.cfg.Clients)
	w.next = make([]int, w.cfg.Clients)
	w.recs = make([][]answerRec, w.cfg.Clients)
	for c := range w.clients {
		if w.clients[c], err = meshclient.NewBinary(meshclient.BinaryOptions{Addr: w.node.binAddr}); err != nil {
			return err
		}
		// Warm: dial, and build the snapshot and its router views.
		if _, err := w.clients[c].RouteBatch(context.Background(), meshName, w.batches[c], "blocks", true); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return nil
}

func (w *routeBatchWL) run(until time.Time, tr *tracer) (*loadResult, error) {
	ctx := context.Background()
	res := &loadResult{TailQ: 0.99}
	win := openWindow()
	stats := closedLoop(w.cfg.Clients, until, tr, "meshclient.BinaryClient.RouteBatch", &win.m, func(c, _ int) (int, error) {
		b := (w.next[c]*w.cfg.Clients + c) % len(w.batches)
		w.next[c]++
		out, err := w.clients[c].RouteBatch(ctx, meshName, w.batches[b], "blocks", true)
		if err != nil {
			return 0, err
		}
		w.recs[c] = append(w.recs[c], answerRec{Idx: uint32(b), Digest: batchDigest(out)})
		return len(out), nil
	})
	res.Win = win.close()
	merge(res, stats)
	return res, nil
}

func (w *routeBatchWL) check() error {
	o, err := newOracle(w.faults)
	if err != nil {
		return err
	}
	return checkRecords("route batch", w.recs, func(idx uint32) (uint64, error) {
		return o.batchDigest(w.batches[idx])
	})
}

func (w *routeBatchWL) counters() counterSnap {
	s := counterSnap{BinaryTransport: true}
	serverCounters(&s, w.node, "binary_latency")
	reachCounters(&s)
	for _, n := range w.next {
		s.Calls += uint64(n)
	}
	return s
}

func (w *routeBatchWL) target() (*replayTarget, error) {
	var reqs []replayReq
	for b := 0; b < replaySample/8 && b < len(w.batches); b++ {
		reqs = append(reqs, replayReq{Op: wire.OpRouteBatch, Pairs: w.batches[b]})
	}
	return &replayTarget{node: w.node, d: w.d, reqs: reqs, binary: true}, nil
}

func (w *routeBatchWL) close() {
	for _, c := range w.clients {
		if c != nil {
			c.Close()
		}
	}
	if w.node != nil {
		w.node.stop()
	}
}
