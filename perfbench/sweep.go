package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"extmesh"
	"extmesh/internal/reliability"
	"extmesh/internal/wire"
	"extmesh/meshclient"
)

// sweepWL is survivability_sweep: back-to-back reliability.Sweep calls
// on 200x200 at k=100 and k=200, a fixed trial budget per point, 8
// pairs per trial, workers = nproc. No server runs; each sweep is one
// request whose latency is the time to its report.
type sweepWL struct {
	cfg     config
	base    reliability.Config
	seeds   *rand.Rand
	reports []sweepReport

	replayNode *node
}

type sweepReport struct {
	seed int64
	json []byte
}

const (
	sweepTrials = 64
	sweepPairs  = 8
	// z9999 widens a report's 95% intervals to 99.99% for the Theorem 2
	// check: a healthy sweep leaves the analytic value outside a 95%
	// interval one time in twenty by design, which must not fail a run.
	z95   = 1.959963984540054
	z9999 = 3.890591886413094
)

func newSweep(cfg config) (*sweepWL, error) {
	return &sweepWL{
		cfg: cfg,
		base: reliability.Config{
			Width: meshSide, Height: meshSide,
			Points:        []reliability.Point{{K: 100}, {K: 200}},
			Trials:        sweepTrials,
			PairsPerTrial: sweepPairs,
			Workers:       runtime.NumCPU(),
		},
		seeds: rng(cfg.Seed, streamSweep),
	}, nil
}

// setup runs one warm-up sweep of the workload's own size.
func (w *sweepWL) setup() error {
	c := w.base
	c.Seed = w.cfg.Seed
	_, err := reliability.Sweep(c)
	return err
}

func (w *sweepWL) run(until time.Time, tr *tracer) (*loadResult, error) {
	res := &loadResult{TailQ: 0.9}
	var trials int64
	win := openWindow()
	for time.Now().Before(until) {
		c := w.base
		c.Seed = w.seeds.Int63()
		t0 := time.Now()
		rep, err := reliability.Sweep(c)
		t1 := time.Now()
		if tr != nil {
			tr.record("reliability.Sweep", 0, tr.newReq(), t0, t1)
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			if res.FirstErr == nil {
				res.FirstErr = err
			}
			continue
		}
		res.Lat = append(res.Lat, t1.Sub(t0))
		res.LatAt = append(res.LatAt, t1.UnixNano())
		var pairs, n int64
		for _, p := range rep.Points {
			pairs += p.Minimal.Samples
			n += int64(p.Trials)
		}
		res.Queries += pairs
		trials += n
		win.m.add(pairs, n)
		body, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		w.reports = append(w.reports, sweepReport{seed: c.Seed, json: body})
	}
	res.Win = win.close()
	res.Ops = trials
	res.Extra = append(res.Extra,
		resultLine{Name: "trials_per_s", Value: float64(trials) / res.Win.Elapsed.Seconds(), Unit: "1/s", Note: fmt.Sprintf("%d trials", trials)})
	return res, nil
}

// check re-runs the first and the last recorded sweeps at one worker,
// requires byte-identical reports, and requires Theorem 2's expected
// affected rows and columns inside each report's (widened) interval.
func (w *sweepWL) check() error {
	if len(w.reports) == 0 {
		return errors.New("no sweep completed")
	}
	for _, r := range []sweepReport{w.reports[0], w.reports[len(w.reports)-1]} {
		c := w.base
		c.Seed = r.seed
		c.Workers = 1
		rep, err := reliability.Sweep(c)
		if err != nil {
			return err
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, r.json) {
			return fmt.Errorf("sweep seed %d: report at 1 worker differs from %d workers", r.seed, w.base.Workers)
		}
		for _, p := range rep.Points {
			if p.Trials != w.base.Trials {
				return fmt.Errorf("sweep seed %d %v: %d trials, budget %d", r.seed, p.Point, p.Trials, w.base.Trials)
			}
			if !theorem2Holds(p.AffectedRows, p.AnalyticRows) || !theorem2Holds(p.AffectedCols, p.AnalyticCols) {
				return fmt.Errorf("sweep seed %d %v: Theorem 2 (rows %.2f, cols %.2f) outside the 99.99%% interval of rows %.2f±%.2f, cols %.2f±%.2f",
					r.seed, p.Point, p.AnalyticRows, p.AnalyticCols,
					p.AffectedRows.Mean, p.AffectedRows.HalfWidth(), p.AffectedCols.Mean, p.AffectedCols.HalfWidth())
			}
		}
	}
	return nil
}

// theorem2Holds reports whether the analytic value lies inside the
// estimate's 95% interval widened to 99.99%.
func theorem2Holds(e reliability.MeanEstimate, analytic float64) bool {
	return math.Abs(analytic-e.Mean) <= e.HalfWidth()*z9999/z95
}

func (w *sweepWL) counters() counterSnap {
	var s counterSnap
	reachCounters(&s)
	if w.replayNode != nil {
		serverCounters(&s, w.replayNode, httpQueryHistos...)
	}
	return s
}

// target starts a server for the replay only: it serves the k=100
// point's fault set, and the sampled requests are the sweep's pair
// classifications (existence, safe, ensure) on it.
func (w *sweepWL) target() (*replayTarget, error) {
	faults, err := randomFaults(w.cfg.Seed, w.base.Points[0].K)
	if err != nil {
		return nil, err
	}
	n, d, err := standalone(faults)
	if err != nil {
		return nil, err
	}
	w.replayNode = n
	client, err := meshclient.New(meshclient.Options{BaseURL: n.httpURL})
	if err != nil {
		return nil, err
	}
	net, err := extmesh.New(meshSide, meshSide, faults)
	if err != nil {
		return nil, err
	}
	ops := []uint8{wire.OpHasMinimalPath, wire.OpSafe, wire.OpEnsure}
	reqs := make([]replayReq, 0, replaySample)
	for i, p := range uniformPairs(rng(w.cfg.Seed, streamPairs), healthyNodes(net), replaySample) {
		reqs = append(reqs, replayReq{Op: ops[i%len(ops)], Src: p.Src, Dst: p.Dst})
	}
	return &replayTarget{node: n, d: d, reqs: reqs, json: client}, nil
}

func (w *sweepWL) close() {
	if w.replayNode != nil {
		w.replayNode.stop()
	}
}
