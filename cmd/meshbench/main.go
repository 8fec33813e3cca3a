// Command meshbench measures the query-plane hot paths — minimal-path
// existence, condition evaluation and routing, each in single-shot,
// cached and batch form — on a paper-scale mesh, plus the journal
// durability plane and the Monte Carlo reliability engine
// (trials/sec), and writes the results as machine-readable JSON
// (BENCH_routing.json) so the performance trajectory is tracked from
// run to run.
//
// Usage:
//
//	meshbench [-w 200] [-h 200] [-k "100,200"] [-dests 256] [-seed 7]
//	          [-benchtime 1s] [-out BENCH_routing.json]
//	          [-baseline BENCH_routing.json] [-tolerance 10]
//
// Every measurement reports ns/op, bytes/op and allocs/op from the
// standard testing.Benchmark machinery plus a derived queries/sec
// (batch operations are normalized by their batch size).
//
// With -baseline the fresh report is diffed against a previously
// written report: every measurement shared by both runs must keep its
// queries/sec within -tolerance percent of the baseline, or meshbench
// prints the regressing rows and exits nonzero. Mesh dimensions must
// match, measurements present on only one side are informational.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"extmesh"
	"extmesh/internal/analytic"
	"extmesh/internal/core"
	"extmesh/internal/fault"
	"extmesh/internal/journal"
	"extmesh/internal/mesh"
	"extmesh/internal/metrics"
	"extmesh/internal/reliability"
	"extmesh/internal/route"
	"extmesh/internal/wang"
)

// Report is the top-level JSON document.
type Report struct {
	Tool        string     `json:"tool"`
	GoVersion   string     `json:"go_version"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	MeshWidth   int        `json:"mesh_width"`
	MeshHeight  int        `json:"mesh_height"`
	Dests       int        `json:"dests_per_batch"`
	Seed        int64      `json:"seed"`
	Scenarios   []Scenario `json:"scenarios"`
	Journal     []Result   `json:"journal,omitempty"`
	Reliability []Result   `json:"reliability,omitempty"`
}

// Scenario is one fault count's measurements.
type Scenario struct {
	Faults  int      `json:"faults"`
	Results []Result `json:"results"`
}

// Result is one measured operation.
type Result struct {
	Name          string  `json:"name"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	QueriesPerOp  int     `json:"queries_per_op"`
	QueriesPerSec float64 `json:"queries_per_sec"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "meshbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("meshbench", flag.ContinueOnError)
	var (
		width     = fs.Int("w", 200, "mesh width")
		height    = fs.Int("h", 200, "mesh height")
		faultsArg = fs.String("k", "100,200", "comma-separated fault counts (paper densities)")
		dests     = fs.Int("dests", 256, "destinations per batch operation")
		seed      = fs.Int64("seed", 7, "PRNG seed for fault placement and query sampling")
		benchtime = fs.Duration("benchtime", time.Second, "target time per measurement")
		outFile   = fs.String("out", "BENCH_routing.json", "output JSON path ('-' for stdout only)")
		baseline  = fs.String("baseline", "", "baseline report to diff against; exit nonzero on q/s regressions")
		tolerance = fs.Float64("tolerance", 10, "allowed queries/sec drop versus the baseline, in percent")
		doJournal = fs.Bool("journal", true, "measure the journal durability plane (too noisy at smoke benchtimes)")
		doRel     = fs.Bool("reliability", true, "measure the Monte Carlo survivability engine")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Register the testing flags so -benchtime can be forwarded to
	// testing.Benchmark below.
	testing.Init()
	if *width < 2 || *height < 2 {
		return fmt.Errorf("mesh must be at least 2x2, got %dx%d", *width, *height)
	}
	if *dests < 1 {
		return fmt.Errorf("need at least one destination, got %d", *dests)
	}
	var counts []int
	for _, f := range strings.Split(*faultsArg, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || k < 0 {
			return fmt.Errorf("bad fault count %q", f)
		}
		if k > *width**height-2 {
			return fmt.Errorf("fault count %d leaves no source/destination in a %dx%d mesh", k, *width, *height)
		}
		counts = append(counts, k)
	}

	rep := Report{
		Tool:       "meshbench",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MeshWidth:  *width,
		MeshHeight: *height,
		Dests:      *dests,
		Seed:       *seed,
	}
	for _, k := range counts {
		sc, err := measureScenario(out, *width, *height, k, *dests, *seed, *benchtime)
		if err != nil {
			return err
		}
		rep.Scenarios = append(rep.Scenarios, sc)
	}
	if *doJournal {
		jr, err := measureJournal(out, *benchtime)
		if err != nil {
			return err
		}
		rep.Journal = jr
	}
	if *doRel {
		rr, err := measureReliability(out, *width, *height, *benchtime)
		if err != nil {
			return err
		}
		rep.Reliability = rr
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outFile != "-" {
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outFile)
	} else {
		out.Write(data)
	}
	if *baseline != "" {
		if err := diffBaseline(out, rep, *baseline, *tolerance); err != nil {
			return err
		}
	}
	return nil
}

// resultKey addresses one measurement across reports: the scenario's
// fault count (journal measurements use journalFaults) plus the
// result name.
type resultKey struct {
	faults int
	name   string
}

// journalFaults and reliabilityFaults are the pseudo fault counts the
// fault-independent journal and reliability measurements are filed
// under in a baseline diff.
const (
	journalFaults     = -1
	reliabilityFaults = -2
)

// indexResults flattens a report into a key->result map.
func indexResults(rep Report) map[resultKey]Result {
	idx := make(map[resultKey]Result)
	for _, sc := range rep.Scenarios {
		for _, r := range sc.Results {
			idx[resultKey{faults: sc.Faults, name: r.Name}] = r
		}
	}
	for _, r := range rep.Journal {
		idx[resultKey{faults: journalFaults, name: r.Name}] = r
	}
	for _, r := range rep.Reliability {
		idx[resultKey{faults: reliabilityFaults, name: r.Name}] = r
	}
	return idx
}

// diffBaseline compares the fresh report's queries/sec against a
// baseline report, measurement by measurement, and fails when any
// shared measurement regressed by more than tolerance percent.
// Measurements present on only one side are reported but never fail
// the diff, so adding or retiring a section doesn't break CI.
func diffBaseline(out io.Writer, rep Report, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.MeshWidth != rep.MeshWidth || base.MeshHeight != rep.MeshHeight {
		return fmt.Errorf("baseline %s measured a %dx%d mesh, this run a %dx%d mesh: not comparable",
			path, base.MeshWidth, base.MeshHeight, rep.MeshWidth, rep.MeshHeight)
	}
	baseIdx := indexResults(base)
	curIdx := indexResults(rep)

	keys := make([]resultKey, 0, len(curIdx))
	for k := range curIdx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].faults != keys[j].faults {
			return keys[i].faults < keys[j].faults
		}
		return keys[i].name < keys[j].name
	})

	fmt.Fprintf(out, "baseline diff vs %s (tolerance %.0f%%):\n", path, tolerance)
	var regressions []string
	for _, k := range keys {
		cur := curIdx[k]
		old, ok := baseIdx[k]
		if !ok {
			fmt.Fprintf(out, "  k=%-5d %-28s %14.0f q/s  (new measurement, no baseline)\n", k.faults, k.name, cur.QueriesPerSec)
			continue
		}
		if old.QueriesPerSec <= 0 || cur.QueriesPerSec <= 0 {
			continue
		}
		deltaPct := (cur.QueriesPerSec/old.QueriesPerSec - 1) * 100
		verdict := "ok"
		if deltaPct < -tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions, fmt.Sprintf("k=%d %s: %.0f -> %.0f q/s (%.1f%%)",
				k.faults, k.name, old.QueriesPerSec, cur.QueriesPerSec, deltaPct))
		}
		fmt.Fprintf(out, "  k=%-5d %-28s %14.0f -> %12.0f q/s %+7.1f%%  %s\n",
			k.faults, k.name, old.QueriesPerSec, cur.QueriesPerSec, deltaPct, verdict)
	}
	for k, old := range baseIdx {
		if _, ok := curIdx[k]; !ok {
			fmt.Fprintf(out, "  k=%-5d %-28s %14.0f q/s  (baseline only, not measured this run)\n", k.faults, k.name, old.QueriesPerSec)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d measurement(s) regressed beyond %.0f%%:\n  %s",
			len(regressions), tolerance, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "no regressions beyond %.0f%%\n", tolerance)
	return nil
}

// measureScenario builds one fault configuration and runs every
// measurement against it.
func measureScenario(out io.Writer, w, h, k, nDests int, seed int64, benchtime time.Duration) (Scenario, error) {
	rng := rand.New(rand.NewSource(seed))
	m := mesh.Mesh{Width: w, Height: h}
	var faults []extmesh.Coord
	seen := make(map[extmesh.Coord]bool)
	for len(faults) < k {
		c := extmesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if !seen[c] {
			seen[c] = true
			faults = append(faults, c)
		}
	}
	net, err := extmesh.New(w, h, faults)
	if err != nil {
		return Scenario{}, err
	}
	faultGrid := make([]bool, m.Size())
	for _, f := range faults {
		faultGrid[m.Index(f)] = true
	}

	// Root the queries at the center, or the first non-faulty node if
	// the center happens to be faulty (k <= w*h-2 guarantees one).
	src := m.Center()
	for i := 0; net.IsFaulty(src); i++ {
		src = m.CoordOf(i)
	}
	// Sample non-faulty destinations across the whole mesh.
	destList := make([]extmesh.Coord, 0, nDests)
	for len(destList) < nDests {
		c := extmesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if !net.IsFaulty(c) && c != src {
			destList = append(destList, c)
		}
	}
	pairs := make([]extmesh.Pair, len(destList))
	for i, d := range destList {
		pairs[i] = extmesh.Pair{Src: src, Dst: d}
	}
	st := extmesh.DefaultStrategy()

	fmt.Fprintf(out, "mesh %dx%d, %d faults, %d dests:\n", w, h, k, len(destList))
	sc := Scenario{Faults: k}
	record := func(name string, queriesPerOp int, fn func(b *testing.B)) {
		old := flag.Lookup("test.benchtime")
		if old != nil {
			old.Value.Set(benchtime.String())
		}
		r := testing.Benchmark(fn)
		res := Result{
			Name:         name,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			QueriesPerOp: queriesPerOp,
		}
		if res.NsPerOp > 0 {
			res.QueriesPerSec = float64(queriesPerOp) * 1e9 / res.NsPerOp
		}
		sc.Results = append(sc.Results, res)
		fmt.Fprintf(out, "  %-28s %12.1f ns/op %8d B/op %6d allocs/op %14.0f q/s\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.QueriesPerSec)
	}

	// Scenario construction: the full per-configuration pipeline — fault
	// scenario, block and MCC labeling, safety levels for both models,
	// and the reachability cone — built from scratch versus rebuilt into
	// reused arena buffers, as internal/sim's workers do.
	record("scenario_setup/fresh", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fsc, err := fault.NewScenario(m, faults)
			if err != nil {
				b.Fatal(err)
			}
			bs := fault.BuildBlocks(fsc)
			ms := fault.BuildMCC(fsc, fault.TypeOne)
			if _, err := core.NewModel(m, bs.BlockedGrid()); err != nil {
				b.Fatal(err)
			}
			if _, err := core.NewModel(m, ms.BlockedGrid()); err != nil {
				b.Fatal(err)
			}
			_ = wang.ReachFrom(m, src, faultGrid)
		}
	})
	record("scenario_setup/arena", 1, func(b *testing.B) {
		b.ReportAllocs()
		var (
			asc                *fault.Scenario
			bs                 *fault.BlockSet
			ms                 *fault.MCCSet
			blockGrid, mccGrid []bool
			blockMd, mccMd     core.Model
			reach              *wang.Reach
		)
		for i := 0; i < b.N; i++ {
			if asc == nil {
				var err error
				if asc, err = fault.NewScenario(m, faults); err != nil {
					b.Fatal(err)
				}
			} else if err := asc.Reset(faults); err != nil {
				b.Fatal(err)
			}
			bs = fault.BuildBlocksInto(bs, asc)
			ms = fault.BuildMCCInto(ms, asc, fault.TypeOne)
			blockGrid = bs.BlockedGridInto(blockGrid)
			mccGrid = ms.BlockedGridInto(mccGrid)
			if err := blockMd.Reset(m, blockGrid); err != nil {
				b.Fatal(err)
			}
			if err := mccMd.Reset(m, mccGrid); err != nil {
				b.Fatal(err)
			}
			reach = wang.ReachFromInto(reach, m, src, faultGrid)
		}
		_ = reach
	})

	// Condition evaluation on a prepared model: the Extension-2 segment
	// scan is the strategy hot loop and must stay allocation-free.
	condSc, err := fault.NewScenario(m, faults)
	if err != nil {
		return Scenario{}, err
	}
	md, err := core.NewModel(m, fault.BuildBlocks(condSc).BlockedGrid())
	if err != nil {
		return Scenario{}, err
	}
	record("condition_eval/extension2", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			md.Extension2(src, destList[i%len(destList)], core.StrategySegSize)
		}
	})
	st1 := core.NewStrategy1()
	record("condition_eval/strategy1", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			md.Evaluate(src, destList[i%len(destList)], st1)
		}
	})

	// Existence: the uncached rectangle DP per query, then the cached
	// per-source sweep, then the batched form.
	record("has_minimal_path/single", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = wang.MinimalPathExists(m, src, destList[i%len(destList)], faultGrid)
		}
	})
	net.HasMinimalPath(src, destList[0]) // pay the sweep before timing
	record("has_minimal_path/cached", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = net.HasMinimalPath(src, destList[i%len(destList)])
		}
	})
	var hmBuf []bool
	record("has_minimal_path/batch", len(destList), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hmBuf = net.HasMinimalPathAllInto(hmBuf, src, destList)
		}
	})

	// The reachability kernel itself: the retired per-cell bool sweep
	// (kept here as the reference) against the bit-parallel sweep that
	// replaced it, and the []bool entry point that pays the conversion
	// on every call.
	record("reach_bitset/bool_sweep", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = boolSweepReach(m, src, faultGrid)
		}
	})
	faultBits := new(mesh.Bits).FromBools(m, faultGrid)
	var rbits *wang.Reach
	record("reach_bitset/bitset", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rbits = wang.ReachFromBitsInto(rbits, m, src, faultBits)
		}
	})
	var rconv *wang.Reach
	record("reach_bitset/from_bools", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rconv = wang.ReachFromInto(rconv, m, src, faultGrid)
		}
	})

	// Condition evaluation: per destination, then the worker-pool batch.
	record("ensure/single", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = net.Ensure(src, destList[i%len(destList)], extmesh.Blocks, st)
		}
	})
	record("ensure/batch", len(destList), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = net.EnsureAll(src, destList, extmesh.Blocks, st)
		}
	})

	// Routing: Wu single vs batch, oracle uncached vs cached reach.
	record("route/single", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = net.Route(src, destList[i%len(destList)], extmesh.Blocks)
		}
	})
	record("route/batch", len(pairs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = net.RouteMany(pairs, extmesh.Blocks)
		}
	})
	record("oracle_route/uncached", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = route.Oracle(m, faultGrid, src, destList[i%len(destList)])
		}
	})
	record("oracle_route/cached", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = net.OracleRoute(src, destList[i%len(destList)])
		}
	})

	// The route kernel in isolation: per-hop decision, append-style
	// single route into a reused buffer, the arena batch, the
	// word-stepping oracle, and the cost of building one orientation
	// view from scratch (contour walks + flat boundary index pack).
	kernelGrid := fault.BuildBlocks(condSc).BlockedGrid()
	kr := route.NewRouter(m, kernelGrid)
	kr.NextHop(src, destList[0]) // build the view before timing
	record("route_kernel/next_hop", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = kr.NextHop(src, destList[i%len(destList)])
		}
	})
	var kbuf []mesh.Coord
	record("route_kernel/route_into", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kbuf, _ = kr.RouteInto(kbuf[:0], src, destList[i%len(destList)])
		}
	})
	// Centre-rooted routes stay short; uniform random healthy pairs
	// cross the whole mesh in all four orientations, the traffic an
	// end-to-end route batch sends.
	uniform := uniformPairs(m, kernelGrid, seed, 4096)
	for _, p := range uniform {
		kbuf, _ = kr.RouteInto(kbuf[:0], p.Src, p.Dst) // build every orientation's view
	}
	record("route_kernel/route_uniform", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := uniform[i%len(uniform)]
			kbuf, _ = kr.RouteInto(kbuf[:0], p.Src, p.Dst)
		}
	})
	var arena extmesh.RouteArena
	net.RouteManyInto(&arena, pairs, extmesh.Blocks) // warm slabs and views
	record("route_kernel/batch_into", len(pairs), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = net.RouteManyInto(&arena, pairs, extmesh.Blocks)
		}
	})
	var obuf extmesh.Path
	net.OracleRoute(src, destList[0]) // pay the first reach sweep up front
	record("route_kernel/oracle_into", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			obuf, _ = net.OracleRouteInto(obuf[:0], src, destList[i%len(destList)])
		}
	})
	record("route_kernel/view_build", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := route.NewRouter(m, kernelGrid)
			_, _ = r.NextHop(src, mesh.Coord{X: m.Width - 1, Y: m.Height - 1})
		}
	})
	return sc, nil
}

// uniformPairs draws n (source, destination) pairs uniformly from the
// nodes outside the blocked grid, with distinct endpoints.
func uniformPairs(m mesh.Mesh, blocked []bool, seed int64, n int) []extmesh.Pair {
	var nodes []mesh.Coord
	for i, b := range blocked {
		if !b {
			nodes = append(nodes, m.CoordOf(i))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]extmesh.Pair, n)
	for i := range out {
		s := nodes[rng.Intn(len(nodes))]
		d := nodes[rng.Intn(len(nodes))]
		for d == s {
			d = nodes[rng.Intn(len(nodes))]
		}
		out[i] = extmesh.Pair{Src: s, Dst: d}
	}
	return out
}

// boolSweepReach is the pre-bitset reachability algorithm — one bool
// per cell, four quadrant cones, scalar recurrence — retained here as
// the reference the reach_bitset/* measurements are judged against.
func boolSweepReach(m mesh.Mesh, s mesh.Coord, blocked []bool) []bool {
	ok := make([]bool, m.Size())
	for _, sx := range [2]int{1, -1} {
		for _, sy := range [2]int{1, -1} {
			for y := s.Y; y >= 0 && y < m.Height; y += sy {
				for x := s.X; x >= 0 && x < m.Width; x += sx {
					i := y*m.Width + x
					if blocked[i] {
						continue
					}
					if x == s.X && y == s.Y {
						ok[i] = true
						continue
					}
					reach := false
					if x != s.X {
						reach = ok[y*m.Width+(x-sx)]
					}
					if !reach && y != s.Y {
						reach = ok[(y-sy)*m.Width+x]
					}
					ok[i] = reach
				}
			}
		}
	}
	return ok
}

// measureReliability times the Monte Carlo survivability engine: raw
// trial throughput (sample faults, rebuild blocks and reachability in
// the arena, classify pairs) on the fixed 64x64 reference mesh and on
// this run's full mesh, plus the Theorem 2 closed form the sweeps are
// cross-checked against. QueriesPerSec here is trials/sec.
func measureReliability(out io.Writer, w, h int, benchtime time.Duration) ([]Result, error) {
	fmt.Fprintf(out, "reliability:\n")
	var results []Result
	record := func(name string, queriesPerOp int, fn func(b *testing.B)) {
		if old := flag.Lookup("test.benchtime"); old != nil {
			old.Value.Set(benchtime.String())
		}
		r := testing.Benchmark(fn)
		res := Result{
			Name:         name,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			QueriesPerOp: queriesPerOp,
		}
		if res.NsPerOp > 0 {
			res.QueriesPerSec = float64(queriesPerOp) * 1e9 / res.NsPerOp
		}
		results = append(results, res)
		fmt.Fprintf(out, "  %-28s %12.1f ns/op %8d B/op %6d allocs/op %14.0f trials/s\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.QueriesPerSec)
	}

	sweepBench := func(sw, sh, k, trials int) func(b *testing.B) {
		cfg := reliability.Config{
			Width: sw, Height: sh,
			Points:        []reliability.Point{{K: k}},
			Trials:        trials,
			PairsPerTrial: 8,
			Seed:          7,
		}
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := reliability.Sweep(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// 64x64 at the paper's 1% density: the fixed reference point that
	// stays comparable when -w/-h change.
	record("reliability/sweep_64x64", 16, sweepBench(64, 64, 40, 16))
	// The full mesh of this run (200x200 by default), at the same
	// density, fewer trials per op to keep the measurement bounded.
	kFull := w * h / 100
	if kFull < 2 {
		kFull = 2
	}
	if kFull > w*h-2 {
		kFull = w*h - 2
	}
	record("reliability/sweep_full", 4, sweepBench(w, h, kFull, 4))
	// The Theorem 2 closed form the Monte Carlo estimates are checked
	// against — pure arithmetic, but on the sweep result path.
	record("reliability/analytic_thm2", 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = analytic.ExpectedAffected(h, kFull)
		}
	})
	return results, nil
}

// measureJournal times the durability plane: append throughput with
// and without per-record fsync, and cold replay of a populated
// journal. These bound what a journaled meshserved can acknowledge.
func measureJournal(out io.Writer, benchtime time.Duration) ([]Result, error) {
	fmt.Fprintf(out, "journal:\n")
	var results []Result
	record := func(name string, queriesPerOp int, fn func(b *testing.B)) {
		if old := flag.Lookup("test.benchtime"); old != nil {
			old.Value.Set(benchtime.String())
		}
		r := testing.Benchmark(fn)
		res := Result{
			Name:         name,
			NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:   r.AllocedBytesPerOp(),
			AllocsPerOp:  r.AllocsPerOp(),
			QueriesPerOp: queriesPerOp,
		}
		if res.NsPerOp > 0 {
			res.QueriesPerSec = float64(queriesPerOp) * 1e9 / res.NsPerOp
		}
		results = append(results, res)
		fmt.Fprintf(out, "  %-28s %12.1f ns/op %8d B/op %6d allocs/op %14.0f q/s\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.QueriesPerSec)
	}

	rec := journal.Record{
		Op:   journal.OpApply,
		Name: "bench",
		Fail: []extmesh.Coord{{X: 3, Y: 4}, {X: 5, Y: 6}},
	}
	appendBench := func(policy journal.SyncPolicy) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			dir, err := os.MkdirTemp("", "meshbench-journal-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			store, err := journal.Open(dir, journal.Options{
				Policy:       policy,
				CompactEvery: 1 << 30, // appends only; no compaction mid-measure
				Metrics:      metrics.NewRegistry(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			if _, err := store.Recover(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	record("journal/append_syncnever", 1, appendBench(journal.SyncNever))
	record("journal/append_syncalways", 1, appendBench(journal.SyncAlways))

	// Replay: a journal of replayRecords apply records, recovered from
	// cold per iteration (open + frame-decode + close).
	const replayRecords = 4096
	dir, err := os.MkdirTemp("", "meshbench-replay-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seedStore, err := journal.Open(dir, journal.Options{
		Policy:       journal.SyncNever,
		CompactEvery: 1 << 30,
		Metrics:      metrics.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := seedStore.Recover(); err != nil {
		return nil, err
	}
	for i := 0; i < replayRecords; i++ {
		if _, err := seedStore.Append(rec); err != nil {
			return nil, err
		}
	}
	if err := seedStore.Close(); err != nil {
		return nil, err
	}
	record("journal/replay", replayRecords, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store, err := journal.Open(dir, journal.Options{Metrics: metrics.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			recovery, err := store.Recover()
			if err != nil {
				b.Fatal(err)
			}
			if len(recovery.Records) != replayRecords {
				b.Fatalf("replayed %d records, want %d", len(recovery.Records), replayRecords)
			}
			store.Close()
		}
	})
	return results, nil
}
