package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"extmesh"
	"extmesh/internal/core"
	"extmesh/internal/fault"
	"extmesh/internal/journal"
	"extmesh/internal/mesh"
	"extmesh/internal/reliability"
	"extmesh/internal/route"
	"extmesh/internal/sim"
	"extmesh/internal/wang"
)

// probeReps is how many times each probe repeats a build-sized call
// (the median is reported).
const probeReps = 15

// layerProbes times each layer's public functions from outside, on the
// target's fault set and the pairs of its sampled requests. Results are
// keyed by per-layer metric name.
func layerProbes(t *replayTarget, workdir string, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	m := mesh.Mesh{Width: meshSide, Height: meshSide}
	snap, err := t.d.Snapshot()
	if err != nil {
		return nil, err
	}
	faults := snap.Faults()
	var pairs []extmesh.Pair
	for _, r := range t.reqs {
		if len(r.Pairs) > 0 {
			for _, p := range r.Pairs {
				pairs = append(pairs, extmesh.Pair{Src: p.Src, Dst: p.Dst})
			}
		} else {
			pairs = append(pairs, extmesh.Pair{Src: r.Src, Dst: r.Dst})
		}
	}

	// extmesh: memoized snapshot, mutation, rebuild, batch routing.
	const hitReps = 20000
	t0 := time.Now()
	for i := 0; i < hitReps; i++ {
		t.d.Snapshot()
	}
	out["extmesh.snapshot_hit_ns"] = float64(time.Since(t0).Nanoseconds()) / hitReps

	dd, err := newMesh(faults)
	if err != nil {
		return nil, err
	}
	r := rng(seed, streamProbes)
	var apply, rebuild []time.Duration
	for i := 0; i < probeReps; i++ {
		x := freshNode(r, snap)
		for _, ev := range []faultEvent{{Fail: true, Node: x}, {Fail: false, Node: x}} {
			req := faultsRequest(ev)
			a0 := time.Now()
			if _, _, err := dd.Apply(req.Fail, req.Recover); err != nil {
				return nil, err
			}
			a1 := time.Now()
			if _, err := dd.Snapshot(); err != nil {
				return nil, err
			}
			apply = append(apply, a1.Sub(a0))
			rebuild = append(rebuild, time.Since(a1))
		}
	}
	out["extmesh.apply_us"] = us(medianDur(apply))
	out["extmesh.snapshot_rebuild_us"] = us(medianDur(rebuild))

	var arena extmesh.RouteArena
	var many []time.Duration
	for b := 0; b+routeBatchPairs <= len(pairs); b += routeBatchPairs {
		batch := pairs[b : b+routeBatchPairs]
		snap.RouteManyInto(&arena, batch, extmesh.Blocks) // warm the arena
		t0 := time.Now()
		snap.RouteManyInto(&arena, batch, extmesh.Blocks)
		many = append(many, time.Since(t0))
	}
	out["extmesh.route_many_us"] = us(medianDur(many))

	// fault, core: block construction and the safety-level model.
	var blocks, model []time.Duration
	var md *core.Model
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		sc, err := fault.NewScenario(m, faults)
		if err != nil {
			return nil, err
		}
		bs := fault.BuildBlocks(sc)
		t1 := time.Now()
		if md, err = core.NewModel(m, bs.BlockedGrid()); err != nil {
			return nil, err
		}
		blocks = append(blocks, t1.Sub(t0))
		model = append(model, time.Since(t1))
	}
	out["fault.blocks_us"] = us(medianDur(blocks))
	out["core.model_us"] = us(medianDur(model))
	strategies := make([]core.Strategy, len(pairs))
	for i, p := range pairs {
		strategies[i] = kernelStrategy(p.Src, p.Dst)
	}
	t0 = time.Now()
	for i, p := range pairs {
		md.Evaluate(p.Src, p.Dst, strategies[i])
	}
	out["core.ensure_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pairs))

	// route: view construction, then warm per-pair routing.
	var views []time.Duration
	for i := 0; i < probeReps; i++ {
		p := pairs[i%len(pairs)]
		t0 := time.Now()
		rt := route.NewRouter(m, md.Blocked)
		rt.NextHop(p.Src, p.Dst)
		views = append(views, time.Since(t0))
	}
	out["route.view_build_us"] = us(medianDur(views))
	rt := route.NewRouter(m, md.Blocked)
	var buf []mesh.Coord
	for _, p := range pairs { // warm all four orientation views
		buf, _ = rt.RouteInto(buf[:0], p.Src, p.Dst)
	}
	hops, routed := 0, 0
	t0 = time.Now()
	for _, p := range pairs {
		var err error
		if buf, err = rt.RouteInto(buf[:0], p.Src, p.Dst); err == nil {
			hops += len(buf) - 1
			routed++
		}
	}
	out["route.route_into_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(pairs))
	out["route.hops_mean"] = float64(hops) / float64(max(routed, 1))

	// wang: one full reachability sweep per source.
	grid := make([]bool, m.Size())
	for _, f := range faults {
		grid[m.Index(f)] = true
	}
	bits := new(mesh.Bits).FromBools(m, grid)
	var reach *wang.Reach
	var sweeps []time.Duration
	for i, p := range pairs {
		if i >= 4*probeReps {
			break
		}
		t0 := time.Now()
		reach = wang.ReachFromBitsInto(reach, m, p.Src, bits)
		sweeps = append(sweeps, time.Since(t0))
	}
	out["wang.reach_sweep_us"] = us(medianDur(sweeps))

	// journal: appending this workload's kind of record under the
	// serving policy.
	appendUS, err := journalAppend(workdir, r, snap)
	if err != nil {
		return nil, err
	}
	out["journal.append_us"] = appendUS

	// sim, reliability: the Monte Carlo trial's rebuild and its whole.
	arena2 := sim.NewArena()
	var loads []time.Duration
	for i := 0; i <= probeReps; i++ {
		t0 := time.Now()
		if err := arena2.LoadFaults(m, pairs[i%len(pairs)].Src, faults); err != nil {
			return nil, err
		}
		if i > 0 { // the first load allocates the arena
			loads = append(loads, time.Since(t0))
		}
	}
	out["sim.load_faults_us"] = us(medianDur(loads))
	// The rest of a trial: classifying its pairs on the loaded arena,
	// with the same three checks reliability's trials make.
	var classify []time.Duration
	for i := 0; i < probeReps; i++ {
		src := pairs[i%len(pairs)].Src
		if err := arena2.LoadFaults(m, src, faults); err != nil {
			return nil, err
		}
		reach, md := arena2.Reach(), arena2.BlockModel()
		t0 := time.Now()
		for j := 0; j < sweepPairs; j++ {
			d := pairs[(i*sweepPairs+j)%len(pairs)].Dst
			reach.CanReach(d)
			md.Safe(src, d)
			md.Evaluate(src, d, core.NewStrategy1())
		}
		classify = append(classify, time.Since(t0))
	}
	out["reliability.classify_us"] = us(medianDur(classify))
	const trials = 64
	t0 = time.Now()
	if _, err := reliability.Sweep(reliability.Config{
		Width: meshSide, Height: meshSide, Points: []reliability.Point{{K: len(faults)}},
		Trials: trials, PairsPerTrial: sweepPairs, Seed: seed, Workers: 1,
	}); err != nil {
		return nil, err
	}
	out["reliability.trial_us"] = us(time.Since(t0)) / trials
	return out, nil
}

// freshNode draws a node that is healthy in snap.
func freshNode(r *rand.Rand, snap *extmesh.Network) extmesh.Coord {
	for {
		c := extmesh.Coord{X: r.Intn(meshSide), Y: r.Intn(meshSide)}
		if !snap.IsFaulty(c) {
			return c
		}
	}
}

// journalAppend times Store.Append of single-event fault records into a
// scratch journal under the daemon's default (interval) fsync policy.
func journalAppend(workdir string, r *rand.Rand, snap *extmesh.Network) (float64, error) {
	dir, err := os.MkdirTemp(filepath.Join(workdir, "tmp"), "journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store, err := journal.Open(dir, journal.Options{Policy: journal.SyncInterval})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	if _, err := store.Recover(); err != nil {
		return 0, err
	}
	var lat []time.Duration
	for i := 0; i < 4*probeReps; i++ {
		rec := journal.Record{Op: journal.OpApply, Name: meshName, Fail: []extmesh.Coord{freshNode(r, snap)}}
		t0 := time.Now()
		if _, err := store.Append(rec); err != nil {
			return 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	return us(medianDur(lat)), nil
}
