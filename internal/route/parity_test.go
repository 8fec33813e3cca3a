package route

import (
	"math/rand"
	"testing"

	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/wang"
)

// This file pins the refit route kernel (CSR boundary index, append-
// style path assembly, word-stepping oracle) to the pre-refit
// implementation, which is reproduced below verbatim as the golden
// reference: map-backed boundary info, per-call path allocation and a
// per-cell oracle walk. The property test drives both over random
// blocked grids — not just valid block/MCC scenarios, since the kernel
// is defined over arbitrary grids — and demands bit-identical paths.

// refLineRef is the pre-refit lineRef.
type refLineRef struct {
	run  int32
	kind LineKind
	succ int32
}

// refBoundarySet is the pre-refit map-backed boundarySet.
type refBoundarySet struct {
	m     mesh.Mesh
	hRuns []mesh.Rect
	vRuns []mesh.Rect
	info  map[int32][]refLineRef
}

func refBuildBoundaries(m mesh.Mesh, blocked []bool) *refBoundarySet {
	bs := &refBoundarySet{m: m, info: make(map[int32][]refLineRef)}
	bs.hRuns = HorizontalRuns(m, blocked)
	bs.vRuns = VerticalRuns(m, blocked)
	for i, r := range bs.vRuns {
		bs.refWalkL1(int32(i), r, blocked)
	}
	for i, r := range bs.hRuns {
		bs.refWalkL3(int32(i), r, blocked)
	}
	return bs
}

func (bs *refBoundarySet) add(c mesh.Coord, run int32, kind LineKind, succ mesh.Coord) {
	i := int32(bs.m.Index(c))
	s := int32(-1)
	if bs.m.Contains(succ) {
		s = int32(bs.m.Index(succ))
	}
	bs.info[i] = append(bs.info[i], refLineRef{run: run, kind: kind, succ: s})
}

func (bs *refBoundarySet) at(c mesh.Coord) []refLineRef {
	return bs.info[int32(bs.m.Index(c))]
}

func (bs *refBoundarySet) rect(ref refLineRef) mesh.Rect {
	if ref.kind == LineL1 {
		return bs.vRuns[ref.run]
	}
	return bs.hRuns[ref.run]
}

func (bs *refBoundarySet) refWalkL1(run int32, r mesh.Rect, blocked []bool) {
	cur := mesh.Coord{X: r.MinX, Y: r.MinY - 1}
	if !bs.m.Contains(cur) || blocked[bs.m.Index(cur)] {
		return
	}
	first := mesh.Coord{X: r.MinX + 1, Y: r.MinY - 1}
	if !bs.m.Contains(first) || blocked[bs.m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	bs.add(cur, run, LineL1, first)
	for {
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 {
			return
		}
		if !blocked[bs.m.Index(west)] {
			bs.add(west, run, LineL1, cur)
			cur = west
			continue
		}
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 || blocked[bs.m.Index(south)] {
			return
		}
		bs.add(south, run, LineL1, cur)
		cur = south
	}
}

func (bs *refBoundarySet) refWalkL3(run int32, r mesh.Rect, blocked []bool) {
	cur := mesh.Coord{X: r.MinX - 1, Y: r.MinY}
	if !bs.m.Contains(cur) || blocked[bs.m.Index(cur)] {
		return
	}
	first := mesh.Coord{X: r.MinX - 1, Y: r.MinY + 1}
	if !bs.m.Contains(first) || blocked[bs.m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	bs.add(cur, run, LineL3, first)
	for {
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 {
			return
		}
		if !blocked[bs.m.Index(south)] {
			bs.add(south, run, LineL3, cur)
			cur = south
			continue
		}
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 || blocked[bs.m.Index(west)] {
			return
		}
		bs.add(west, run, LineL3, cur)
		cur = west
	}
}

// refView is the pre-refit view with the pre-refit step and route.
type refView struct {
	m       mesh.Mesh
	flipX   bool
	flipY   bool
	blocked []bool
	bounds  *refBoundarySet
}

func (v *refView) to(c mesh.Coord) mesh.Coord {
	if v.flipX {
		c.X = v.m.Width - 1 - c.X
	}
	if v.flipY {
		c.Y = v.m.Height - 1 - c.Y
	}
	return c
}

func (v *refView) from(c mesh.Coord) mesh.Coord { return v.to(c) }

func (v *refView) step(u, d mesh.Coord) (mesh.Coord, error) {
	type constraint struct {
		rect mesh.Rect
		kind LineKind
	}
	var (
		firedBuf  [4]constraint
		fired     = firedBuf[:0]
		succEast  bool
		succNorth bool
	)
	for _, ref := range v.bounds.at(u) {
		b := v.bounds.rect(ref)
		var fire bool
		switch ref.kind {
		case LineL1:
			fire = d.X > b.MaxX && d.Y >= b.MinY && d.Y <= b.MaxY
		case LineL3:
			fire = d.Y > b.MaxY && d.X >= b.MinX && d.X <= b.MaxX
		}
		if !fire {
			continue
		}
		fired = append(fired, constraint{rect: b, kind: ref.kind})
		if ref.succ >= 0 {
			sc := v.m.CoordOf(int(ref.succ))
			if sc.Y == u.Y {
				succEast = true
			} else {
				succNorth = true
			}
		}
	}

	east := mesh.Coord{X: u.X + 1, Y: u.Y}
	north := mesh.Coord{X: u.X, Y: u.Y + 1}
	usable := func(n mesh.Coord) bool {
		if n.X > d.X || n.Y > d.Y || !v.m.Contains(n) || v.blocked[v.m.Index(n)] {
			return false
		}
		for _, c := range fired {
			switch c.kind {
			case LineL1:
				if n.Y >= c.rect.MinY && n.X <= c.rect.MaxX {
					return false
				}
			case LineL3:
				if n.X >= c.rect.MinX && n.Y <= c.rect.MaxY {
					return false
				}
			}
		}
		return true
	}

	okEast := usable(east)
	okNorth := usable(north)
	if len(fired) > 0 {
		okEast = okEast && succEast
		okNorth = okNorth && succNorth
	}
	if d.Y-u.Y > d.X-u.X {
		if okNorth {
			return north, nil
		}
		if okEast {
			return east, nil
		}
	} else {
		if okEast {
			return east, nil
		}
		if okNorth {
			return north, nil
		}
	}
	return mesh.Coord{}, &StuckError{At: u, To: d}
}

func (v *refView) route(s, d mesh.Coord) ([]mesh.Coord, error) {
	path := make([]mesh.Coord, 0, mesh.Distance(s, d)+1)
	path = append(path, s)
	u := s
	for u != d {
		next, err := v.step(u, d)
		if err != nil {
			return nil, err
		}
		u = next
		path = append(path, u)
	}
	return path, nil
}

// refRouter is the pre-refit Router: four eagerly built views.
type refRouter struct {
	m       mesh.Mesh
	blocked []bool
	views   [2][2]*refView
}

func newRefRouter(m mesh.Mesh, blocked []bool) *refRouter {
	r := &refRouter{m: m, blocked: blocked}
	for fx := 0; fx < 2; fx++ {
		for fy := 0; fy < 2; fy++ {
			v := &refView{m: m, flipX: fx == 1, flipY: fy == 1}
			v.blocked = make([]bool, len(blocked))
			for i, b := range blocked {
				if b {
					v.blocked[v.m.Index(v.to(m.CoordOf(i)))] = true
				}
			}
			v.bounds = refBuildBoundaries(v.m, v.blocked)
			r.views[fx][fy] = v
		}
	}
	return r
}

func (r *refRouter) route(s, d mesh.Coord) (Path, error) {
	if !r.m.Contains(s) || !r.m.Contains(d) ||
		r.blocked[r.m.Index(s)] || r.blocked[r.m.Index(d)] {
		return nil, &StuckError{At: s, To: d} // parity test never routes these
	}
	fx, fy := 0, 0
	if d.X < s.X {
		fx = 1
	}
	if d.Y < s.Y {
		fy = 1
	}
	v := r.views[fx][fy]
	np, err := v.route(v.to(s), v.to(d))
	if err != nil {
		return nil, err
	}
	for i := range np {
		np[i] = v.from(np[i])
	}
	return Path(np), nil
}

// refOracleFrom is the pre-refit per-cell oracle walk.
func refOracleFrom(m mesh.Mesh, blocked []bool, reach *wang.Reach, s, d mesh.Coord) (Path, error) {
	if !reach.CanReach(s) {
		return nil, &StuckError{At: s, To: d}
	}
	path := make(Path, 0, mesh.Distance(s, d)+1)
	path = append(path, s)
	u := s
	var dirBuf [2]mesh.Dir
	for u != d {
		advanced := false
		for _, dir := range mesh.AppendPreferredDirs(dirBuf[:0], u, d) {
			n := u.Add(dir.Offset())
			if m.Contains(n) && !blocked[m.Index(n)] && reach.CanReach(n) {
				u = n
				path = append(path, u)
				advanced = true
				break
			}
		}
		if !advanced {
			return nil, &StuckError{At: u, To: d}
		}
	}
	return path, nil
}

// randomGrid fills a fresh blocked grid with the given fault density.
func randomGrid(m mesh.Mesh, density float64, rng *rand.Rand) []bool {
	blocked := make([]bool, m.Size())
	for i := range blocked {
		blocked[i] = rng.Float64() < density
	}
	return blocked
}

func samePath(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKernelParity property-tests the refit kernel against the golden
// reference over ~300 random meshes: Wu routes and oracle routes must
// be bit-identical (same success/failure, same node sequence), the
// append-style variants must agree with their allocating forms under a
// dirty prefix, and every path either router delivers must be minimal
// whenever the oracle succeeds. A paper-scale band then repeats the
// check on 200x200 meshes under the block and both MCC labelings of
// RandomFaults at k = 100, 200 and 800, where lines run long and the
// fire signature's clamped offsets are in play.
func TestKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const meshes = 300
	const pairsPerMesh = 24
	routesChecked := 0
	for mi := 0; mi < meshes; mi++ {
		w := 4 + rng.Intn(37) // up to 40: crosses the 64-column word only rarely, so mix in wide meshes below
		h := 4 + rng.Intn(37)
		if mi%5 == 0 {
			w = 60 + rng.Intn(80) // exercise multi-word rows in the oracle's run stepping
		}
		m := mesh.Mesh{Width: w, Height: h}
		blocked := randomGrid(m, rng.Float64()*0.15, rng)
		routesChecked += checkParity(t, m, blocked, rng, pairsPerMesh)
	}
	if routesChecked < meshes*pairsPerMesh/2 {
		t.Fatalf("too few pairs exercised: %d", routesChecked)
	}

	const paperPairs = 400
	m := mesh.Mesh{Width: 200, Height: 200}
	for _, k := range []int{100, 200, 800} {
		faults, err := fault.RandomFaults(m, k, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := fault.NewScenario(m, faults)
		if err != nil {
			t.Fatal(err)
		}
		for _, blocked := range [][]bool{
			fault.BuildBlocks(sc).BlockedGrid(),
			fault.BuildMCC(sc, fault.TypeOne).BlockedGrid(),
			fault.BuildMCC(sc, fault.TypeTwo).BlockedGrid(),
		} {
			if n := checkParity(t, m, blocked, rng, paperPairs); n < paperPairs/2 {
				t.Fatalf("k=%d: too few pairs exercised: %d", k, n)
			}
		}
	}
}

// checkParity draws pairs random (source, destination) pairs on one
// blocked grid, skipping blocked endpoints, and holds the refit kernel
// to the golden reference on each. It returns how many pairs it
// checked.
func checkParity(t *testing.T, m mesh.Mesh, blocked []bool, rng *rand.Rand, pairs int) int {
	t.Helper()
	w, h := m.Width, m.Height
	newRouter := NewRouter(m, blocked)
	oldRouter := newRefRouter(m, blocked)
	prefix := []mesh.Coord{{X: -7, Y: -9}} // dirty dst prefix for the Into forms
	checked := 0
	for pi := 0; pi < pairs; pi++ {
		s := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		d := mesh.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if blocked[m.Index(s)] || blocked[m.Index(d)] {
			continue
		}

		wantP, wantErr := oldRouter.route(s, d)
		gotP, gotErr := newRouter.Route(s, d)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("mesh %dx%d route %v->%v: ref err=%v, new err=%v", w, h, s, d, wantErr, gotErr)
		}
		if wantErr == nil && !samePath(wantP, gotP) {
			t.Fatalf("mesh %dx%d route %v->%v: ref path %v, new path %v", w, h, s, d, wantP, gotP)
		}
		out, intoErr := newRouter.RouteInto(prefix, s, d)
		if (intoErr == nil) != (gotErr == nil) {
			t.Fatalf("RouteInto %v->%v: err=%v, Route err=%v", s, d, intoErr, gotErr)
		}
		if len(out) < 1 || out[0] != prefix[0] {
			t.Fatalf("RouteInto %v->%v clobbered the dst prefix: %v", s, d, out)
		}
		if intoErr == nil && !samePath(Path(out[1:]), gotP) {
			t.Fatalf("RouteInto %v->%v: %v, want %v", s, d, out[1:], gotP)
		}
		if intoErr != nil && len(out) != len(prefix) {
			t.Fatalf("RouteInto %v->%v error left dst at length %d, want %d", s, d, len(out), len(prefix))
		}

		reach := wang.ReachFrom(m, d, blocked)
		wantOP, wantOErr := refOracleFrom(m, blocked, reach, s, d)
		gotOP, gotOErr := OracleFrom(m, blocked, reach, s, d)
		if (wantOErr == nil) != (gotOErr == nil) {
			t.Fatalf("mesh %dx%d oracle %v->%v: ref err=%v, new err=%v", w, h, s, d, wantOErr, gotOErr)
		}
		if wantOErr == nil && !samePath(wantOP, gotOP) {
			t.Fatalf("mesh %dx%d oracle %v->%v: ref path %v, new path %v", w, h, s, d, wantOP, gotOP)
		}

		// Minimality: whenever the oracle delivers, a delivered Wu
		// route must be minimal too (it always is when it succeeds),
		// and the oracle's own path must be minimal by construction.
		if gotOErr == nil {
			if !gotOP.Minimal() {
				t.Fatalf("oracle path %v->%v not minimal: %v", s, d, gotOP)
			}
			if gotErr == nil && !gotP.Minimal() {
				t.Fatalf("delivered Wu path %v->%v not minimal: %v", s, d, gotP)
			}
		}
		checked++
	}
	return checked
}
