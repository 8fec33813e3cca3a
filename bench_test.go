package extmesh

import (
	"math/rand"
	"testing"

	"extmesh/internal/analytic"
	"extmesh/internal/core"
	"extmesh/internal/dynamic"
	"extmesh/internal/fault"
	"extmesh/internal/infocost"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/safety"
	"extmesh/internal/sim"
	"extmesh/internal/simnet"
	"extmesh/internal/wang"
)

// The per-figure benchmarks regenerate each experiment of the paper at
// a reduced scale (a quarter of the 200x200 mesh with proportionally
// scaled fault counts) so `go test -bench=.` finishes quickly while
// exercising exactly the code paths of the full evaluation. Run
// cmd/meshsim for the paper-scale numbers.

// benchCfg returns the scaled-down evaluation configuration.
func benchCfg() sim.Config {
	cfg := sim.DefaultConfig().Scale(1, 4) // 50x50 mesh, counts 2..50
	cfg.FaultCounts = []int{10, 25, 50}
	cfg.Configurations = 3
	cfg.DestsPerConfig = 10
	return cfg
}

// benchScenario builds one mid-density fault pattern for the micro
// benchmarks.
func benchScenario(b *testing.B, n, k int) (*fault.Scenario, mesh.Mesh) {
	b.Helper()
	m := mesh.Mesh{Width: n, Height: n}
	rng := rand.New(rand.NewSource(42))
	faults, err := fault.RandomFaults(m, k, rng, nil)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := fault.NewScenario(m, faults)
	if err != nil {
		b.Fatal(err)
	}
	return sc, m
}

// BenchmarkFig7AffectedRows regenerates Figure 7: the analytical and
// simulated fractions of affected rows and columns per fault count.
func BenchmarkFig7AffectedRows(b *testing.B) {
	cfg := benchCfg()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := mesh.Mesh{Width: cfg.N, Height: cfg.N}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range cfg.FaultCounts {
			_ = analytic.ExpectedAffectedFraction(cfg.N, k)
			faults, err := fault.RandomFaults(m, k, rng, nil)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := fault.NewScenario(m, faults)
			if err != nil {
				b.Fatal(err)
			}
			blocked := fault.BuildBlocks(sc).BlockedGrid()
			_ = safety.AffectedRows(m, blocked)
			_ = safety.AffectedCols(m, blocked)
		}
	}
}

// BenchmarkFig8DisabledNodes regenerates Figure 8: the average number
// of disabled nodes per fault region under both models.
func BenchmarkFig8DisabledNodes(b *testing.B) {
	cfg := benchCfg()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := mesh.Mesh{Width: cfg.N, Height: cfg.N}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, k := range cfg.FaultCounts {
			faults, err := fault.RandomFaults(m, k, rng, nil)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := fault.NewScenario(m, faults)
			if err != nil {
				b.Fatal(err)
			}
			bs := fault.BuildBlocks(sc)
			mcc := fault.BuildMCC(sc, fault.TypeOne)
			_ = bs.DisabledCount()
			_ = mcc.DisabledCount()
		}
	}
}

// benchFigure runs the full scaled evaluation and hands the metrics to
// a figure extractor; used by the per-figure benchmarks below.
func benchFigure(b *testing.B, extract func([]sim.Metrics) *sim.Table) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tb := extract(ms); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig9Extension1 regenerates Figure 9: safe source, extension
// 1 (minimal and sub-minimal) and the existence baseline.
func BenchmarkFig9Extension1(b *testing.B) {
	benchFigure(b, func(ms []sim.Metrics) *sim.Table { return sim.Figure9(ms, 0) })
}

// BenchmarkFig10Extension2 regenerates Figure 10: extension 2 with
// segment sizes 1, 5, 10 and max.
func BenchmarkFig10Extension2(b *testing.B) {
	benchFigure(b, func(ms []sim.Metrics) *sim.Table { return sim.Figure10(ms, 0) })
}

// BenchmarkFig11Extension3 regenerates Figure 11: extension 3 with
// partition levels 1-3.
func BenchmarkFig11Extension3(b *testing.B) {
	benchFigure(b, func(ms []sim.Metrics) *sim.Table { return sim.Figure11(ms, 0) })
}

// BenchmarkFig12Strategies regenerates Figure 12: strategies 1-4 and
// their MCC counterparts.
func BenchmarkFig12Strategies(b *testing.B) {
	benchFigure(b, func(ms []sim.Metrics) *sim.Table { return sim.Figure12(ms, 1) })
}

// --- Component micro-benchmarks (ablation of the building blocks) ---

func BenchmarkBuildBlocks(b *testing.B) {
	sc, _ := benchScenario(b, 200, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fault.BuildBlocks(sc)
	}
}

func BenchmarkBuildMCC(b *testing.B) {
	sc, _ := benchScenario(b, 200, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fault.BuildMCC(sc, fault.TypeOne)
	}
}

func BenchmarkSafetyLevels(b *testing.B) {
	sc, m := benchScenario(b, 200, 200)
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = safety.Compute(m, blocked)
	}
}

func BenchmarkReachGrid(b *testing.B) {
	sc, m := benchScenario(b, 200, 200)
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	src := m.Center()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wang.ReachFrom(m, src, blocked)
	}
}

func BenchmarkCoverageCondition(b *testing.B) {
	sc, m := benchScenario(b, 200, 200)
	bs := fault.BuildBlocks(sc)
	src := m.Center()
	d := mesh.Coord{X: m.Width - 10, Y: m.Height - 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wang.HasMinimalPathBlocks(bs.Blocks, src, d)
	}
}

func BenchmarkWuProtocolRoute(b *testing.B) {
	sc, m := benchScenario(b, 200, 120)
	bs := fault.BuildBlocks(sc)
	blocked := bs.BlockedGrid()
	r := route.NewRouter(m, blocked)
	md, err := core.NewModel(m, blocked)
	if err != nil {
		b.Fatal(err)
	}
	src := m.Center()
	// Collect safe destinations once so the benchmark measures routing.
	var dests []mesh.Coord
	for y := src.Y + 1; y < m.Height; y += 7 {
		for x := src.X + 1; x < m.Width; x += 7 {
			d := mesh.Coord{X: x, Y: y}
			if md.Safe(src, d) {
				dests = append(dests, d)
			}
		}
	}
	if len(dests) == 0 {
		b.Fatal("no safe destinations")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dests[i%len(dests)]
		if _, err := r.Route(src, d); err != nil {
			b.Fatalf("route %v->%v: %v", src, d, err)
		}
	}
}

func BenchmarkOracleRoute(b *testing.B) {
	sc, m := benchScenario(b, 200, 120)
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	src := m.Center()
	d := mesh.Coord{X: m.Width - 5, Y: m.Height - 5}
	if blocked[m.Index(d)] {
		b.Skip("destination blocked in this pattern")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Oracle(m, blocked, src, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtension1(b *testing.B) {
	benchCondition(b, func(md *core.Model, s, d mesh.Coord) {
		_ = md.Extension1(s, d)
	})
}

func BenchmarkExtension2Seg1(b *testing.B) {
	benchCondition(b, func(md *core.Model, s, d mesh.Coord) {
		_ = md.Extension2(s, d, 1)
	})
}

func BenchmarkExtension2Seg5(b *testing.B) {
	benchCondition(b, func(md *core.Model, s, d mesh.Coord) {
		_ = md.Extension2(s, d, 5)
	})
}

func BenchmarkExtension3Level3(b *testing.B) {
	sc, m := benchScenario(b, 200, 150)
	md, err := core.NewModel(m, fault.BuildBlocks(sc).BlockedGrid())
	if err != nil {
		b.Fatal(err)
	}
	src := m.Center()
	quadrant := mesh.Rect{MinX: src.X, MinY: src.Y, MaxX: m.Width - 1, MaxY: m.Height - 1}
	pivots := safety.Pivots(quadrant, 3, safety.CenterPivots, nil)
	d := mesh.Coord{X: m.Width - 7, Y: m.Height - 13}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = md.Extension3(src, d, pivots)
	}
}

func benchCondition(b *testing.B, f func(md *core.Model, s, d mesh.Coord)) {
	b.Helper()
	sc, m := benchScenario(b, 200, 150)
	md, err := core.NewModel(m, fault.BuildBlocks(sc).BlockedGrid())
	if err != nil {
		b.Fatal(err)
	}
	src := m.Center()
	d := mesh.Coord{X: m.Width - 7, Y: m.Height - 13}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(md, src, d)
	}
}

func BenchmarkNetworkEnsure(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var faults []Coord
	seen := make(map[Coord]bool)
	for len(faults) < 120 {
		c := Coord{X: rng.Intn(200), Y: rng.Intn(200)}
		if !seen[c] {
			seen[c] = true
			faults = append(faults, c)
		}
	}
	n, err := New(200, 200, faults)
	if err != nil {
		b.Fatal(err)
	}
	st := DefaultStrategy()
	s := Coord{X: 100, Y: 100}
	d := Coord{X: 180, Y: 170}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Ensure(s, d, Blocks, st)
	}
}

func BenchmarkDynamicAddFault(b *testing.B) {
	m := mesh.Mesh{Width: 200, Height: 200}
	rng := rand.New(rand.NewSource(21))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := dynamic.New(m)
		if err != nil {
			b.Fatal(err)
		}
		coords := make([]mesh.Coord, 0, 100)
		seen := make(map[mesh.Coord]bool)
		for len(coords) < 100 {
			c := mesh.Coord{X: rng.Intn(200), Y: rng.Intn(200)}
			if !seen[c] {
				seen[c] = true
				coords = append(coords, c)
			}
		}
		b.StartTimer()
		for _, c := range coords {
			if err := tr.AddFault(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFormationProtocol(b *testing.B) {
	sc, m := benchScenario(b, 100, 60)
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = simnet.FormationLevels(m, blocked)
	}
}

func BenchmarkInfoCostMeasure(b *testing.B) {
	sc, m := benchScenario(b, 200, 150)
	bs := fault.BuildBlocks(sc)
	blocked := bs.BlockedGrid()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = infocost.Measure(m, blocked, bs.Blocks)
	}
}

func BenchmarkDFSRoute(b *testing.B) {
	sc, m := benchScenario(b, 200, 150)
	blocked := fault.BuildBlocks(sc).BlockedGrid()
	s := m.Center()
	d := mesh.Coord{X: m.Width - 3, Y: m.Height - 7}
	if blocked[m.Index(d)] {
		b.Skip("destination blocked")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.DFSRoute(m, blocked, s, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicRemoveFault(b *testing.B) {
	m := mesh.Mesh{Width: 200, Height: 200}
	rng := rand.New(rand.NewSource(27))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := dynamic.New(m)
		if err != nil {
			b.Fatal(err)
		}
		coords := make([]mesh.Coord, 0, 60)
		seen := make(map[mesh.Coord]bool)
		for len(coords) < 60 {
			c := mesh.Coord{X: rng.Intn(200), Y: rng.Intn(200)}
			if !seen[c] {
				seen[c] = true
				coords = append(coords, c)
				if err := tr.AddFault(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		for _, c := range coords {
			if err := tr.RemoveFault(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchQueryNet builds a paper-scale 200x200 network for the
// query-plane benchmarks (cache, batch, oracle).
func benchQueryNet(b *testing.B) (*Network, []Coord) {
	b.Helper()
	rng := rand.New(rand.NewSource(31))
	var faults []Coord
	seen := make(map[Coord]bool)
	for len(faults) < 150 {
		c := Coord{X: rng.Intn(200), Y: rng.Intn(200)}
		if !seen[c] {
			seen[c] = true
			faults = append(faults, c)
		}
	}
	n, err := New(200, 200, faults)
	if err != nil {
		b.Fatal(err)
	}
	dests := make([]Coord, 0, 256)
	for len(dests) < 256 {
		c := Coord{X: rng.Intn(200), Y: rng.Intn(200)}
		if !n.IsFaulty(c) {
			dests = append(dests, c)
		}
	}
	return n, dests
}

func BenchmarkHasMinimalPathUncached(b *testing.B) {
	n, dests := benchQueryNet(b)
	s := Coord{X: 100, Y: 100}
	grid := make([]bool, 200*200)
	for _, f := range n.Faults() {
		grid[f.Y*200+f.X] = true
	}
	m := mesh.Mesh{Width: 200, Height: 200}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wang.MinimalPathExists(m, s, dests[i%len(dests)], grid)
	}
}

func BenchmarkHasMinimalPathCached(b *testing.B) {
	n, dests := benchQueryNet(b)
	s := Coord{X: 100, Y: 100}
	n.HasMinimalPath(s, dests[0]) // pay the per-source sweep up front
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.HasMinimalPath(s, dests[i%len(dests)])
	}
}

func BenchmarkEnsureAllBatch(b *testing.B) {
	n, dests := benchQueryNet(b)
	s := Coord{X: 100, Y: 100}
	st := DefaultStrategy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.EnsureAll(s, dests, Blocks, st)
	}
}

func BenchmarkRouteMany(b *testing.B) {
	n, dests := benchQueryNet(b)
	pairs := make([]Pair, len(dests))
	for i, d := range dests {
		pairs[i] = Pair{Src: Coord{X: 100, Y: 100}, Dst: d}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.RouteMany(pairs, Blocks)
	}
}

func BenchmarkOracleRouteCached(b *testing.B) {
	n, dests := benchQueryNet(b)
	s := Coord{X: 100, Y: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = n.OracleRoute(s, dests[i%len(dests)])
	}
}
