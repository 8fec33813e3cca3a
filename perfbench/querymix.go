package main

import (
	"context"
	"errors"
	"time"

	"extmesh"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// queryMixWL is query_mix_json: k=100, closed-loop load goroutines
// sharing one JSON meshclient.Client, single-pair queries in a fixed
// mix with Zipf-distributed sources.
type queryMixWL struct {
	cfg     config
	faults  []extmesh.Coord
	queries []query

	node   *node
	d      *extmesh.DynamicNetwork
	client *meshclient.Client
	next   []int
	recs   [][]answerRec
}

const (
	queryMixK    = 100
	queryMixPool = 1 << 16
)

func newQueryMix(cfg config) (*queryMixWL, error) {
	faults, err := randomFaults(cfg.Seed, queryMixK)
	if err != nil {
		return nil, err
	}
	net, err := extmesh.New(meshSide, meshSide, faults)
	if err != nil {
		return nil, err
	}
	return &queryMixWL{cfg: cfg, faults: faults, queries: queryMix(cfg.Seed, healthyNodes(net), queryMixPool)}, nil
}

func (w *queryMixWL) setup() error {
	var err error
	if w.node, w.d, err = standalone(w.faults); err != nil {
		return err
	}
	if w.client, err = meshclient.New(meshclient.Options{BaseURL: w.node.httpURL}); err != nil {
		return err
	}
	w.next = make([]int, w.cfg.Clients)
	w.recs = make([][]answerRec, w.cfg.Clients)
	// Warm: one query of each kind builds the snapshot, its models,
	// router views and first reach sweep, and opens the connection.
	for _, op := range []queryOp{opRoute, opHasMinimalPath, opEnsure, opSafe} {
		q := w.queries[0]
		q.Op = op
		if _, err := askJSON(context.Background(), w.client, q); isFailure(err) {
			return err
		}
	}
	return nil
}

// askJSON sends one query over the JSON client and digests the answer.
func askJSON(ctx context.Context, c *meshclient.Client, q query) (uint64, error) {
	mq := meshclient.Query{Src: q.Src, Dst: q.Dst}
	switch q.Op {
	case opRoute:
		r, err := c.Route(ctx, meshName, mq)
		if err != nil {
			var apiErr *meshclient.APIError
			if errors.As(err, &apiErr) && !isFailure(err) {
				return routeDigest(noPath, nil, true), err
			}
			return 0, err
		}
		return routeDigest(r.Hops, r.Path, true), nil
	case opHasMinimalPath:
		ok, err := c.HasMinimalPath(ctx, meshName, mq)
		return boolDigest(ok), err
	case opEnsure:
		a, err := c.Ensure(ctx, meshName, mq)
		if err != nil {
			return 0, err
		}
		return ensureDigest(a.Verdict, a.Via), nil
	default:
		ok, err := c.Safe(ctx, meshName, mq)
		return boolDigest(ok), err
	}
}

func (w *queryMixWL) run(until time.Time, tr *tracer) (*loadResult, error) {
	ctx := context.Background()
	res := &loadResult{TailQ: 0.99}
	win := openWindow()
	stats := closedLoop(w.cfg.Clients, until, tr, "meshclient.Client.query", &win.m, func(c, _ int) (int, error) {
		i := (w.next[c]*w.cfg.Clients + c) % len(w.queries)
		w.next[c]++
		dg, err := askJSON(ctx, w.client, w.queries[i])
		if isFailure(err) {
			return 0, err
		}
		w.recs[c] = append(w.recs[c], answerRec{Idx: uint32(i), Digest: dg})
		return 1, err
	})
	res.Win = win.close()
	merge(res, stats)
	return res, nil
}

func (w *queryMixWL) check() error {
	o, err := newOracle(w.faults)
	if err != nil {
		return err
	}
	return checkRecords("query", w.recs, func(idx uint32) (uint64, error) {
		return o.queryDigest(w.queries[idx])
	})
}

func (w *queryMixWL) counters() counterSnap {
	var s counterSnap
	serverCounters(&s, w.node, httpQueryHistos...)
	reachCounters(&s)
	cc := w.client.Counts()
	s.Attempts, s.Retries, s.ClientShed, s.Calls = cc.Attempts, cc.Retries, cc.Shed, cc.Requests
	return s
}

func (w *queryMixWL) target() (*replayTarget, error) {
	reqs := make([]replayReq, 0, replaySample)
	for _, q := range w.queries[:replaySample] {
		reqs = append(reqs, replayReq{Op: wireOp(q.Op), Src: q.Src, Dst: q.Dst})
	}
	return &replayTarget{node: w.node, d: w.d, reqs: reqs, json: w.client}, nil
}

func (w *queryMixWL) close() {
	if w.node != nil {
		w.node.stop()
	}
}

// wireOp maps a mix query kind to its binary-protocol op.
func wireOp(op queryOp) uint8 {
	switch op {
	case opRoute:
		return wire.OpRoute
	case opHasMinimalPath:
		return wire.OpHasMinimalPath
	case opEnsure:
		return wire.OpEnsure
	default:
		return wire.OpSafe
	}
}
