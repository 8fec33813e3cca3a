package route

import (
	"fmt"
	"sync"

	"extmesh/internal/mesh"
	"extmesh/internal/wang"
)

// Router routes packets with Wu's protocol: adaptive minimal routing
// that consults only the boundary-line information stored at the
// current node. One Router serves all four quadrants by lazily building
// a reflected view per orientation.
type Router struct {
	m       mesh.Mesh
	blocked []bool

	// Optional shared view store (NewRouterCached): orientation views
	// are published there under (gen, model) so successive Routers over
	// the same fault generation skip the O(mesh) boundary rebuild.
	cache *ViewCache
	gen   uint64
	model int

	views [2][2]*view
	once  [2][2]sync.Once
}

// view is the router's state for one mesh orientation: coordinates are
// reflected so the destination always lies (weakly) northeast of the
// source, which is the orientation the L1/L3 rules are stated in.
type view struct {
	m       mesh.Mesh
	flipX   bool
	flipY   bool
	blocked []bool
	bounds  *boundarySet
}

// NewRouter builds a router over the fault-region grid (faulty blocks
// or MCCs). blocked is indexed by mesh.Index and is not copied.
func NewRouter(m mesh.Mesh, blocked []bool) *Router {
	return &Router{m: m, blocked: blocked}
}

// NewRouterCached is NewRouter sharing orientation views through vc:
// views built by this Router are published under (gen, model), and
// views another Router already published there are reused instead of
// rebuilt. gen must change whenever the fault set does (callers stamp
// it with their mutation version) and model distinguishes blocked
// grids built from the same fault set (block vs MCC labelings).
func NewRouterCached(m mesh.Mesh, blocked []bool, vc *ViewCache, gen uint64, model int) *Router {
	return &Router{m: m, blocked: blocked, cache: vc, gen: gen, model: model}
}

// Route routes a packet from s to d with Wu's protocol and returns the
// path taken. The route is minimal whenever the protocol succeeds; a
// *StuckError is returned when the limited information was insufficient
// (which Theorem 1 rules out for safe sources).
func (r *Router) Route(s, d mesh.Coord) (Path, error) {
	out, err := r.RouteInto(nil, s, d)
	if err != nil {
		return nil, err
	}
	return Path(out), nil
}

// RouteInto is the append-style Route: the routed path is appended to
// dst — which may be nil, or carry capacity retained from earlier
// routes — and the extended slice is returned, the new path occupying
// out[len(dst):]. On error the returned slice has dst's length (though
// possibly grown capacity). Batch drivers route into per-worker slabs
// so warm batches assemble every path without allocating.
func (r *Router) RouteInto(dst []mesh.Coord, s, d mesh.Coord) ([]mesh.Coord, error) {
	if !r.m.Contains(s) || !r.m.Contains(d) {
		return dst, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, r.m)
	}
	if r.blocked[r.m.Index(s)] || r.blocked[r.m.Index(d)] {
		return dst, fmt.Errorf("route: endpoints %v -> %v inside a fault region", s, d)
	}
	v := r.viewFor(s, d)
	start := len(dst)
	out, err := v.routeInto(dst, v.to(s), v.to(d))
	if err != nil {
		return out, err
	}
	// Reflect back to mesh coordinates in place: the route was written
	// into the caller's buffer, so no second path slice is needed.
	for i := start; i < len(out); i++ {
		out[i] = v.from(out[i])
	}
	return out, nil
}

// NextHop returns the single next hop Wu's protocol takes at u heading
// for d. The protocol is memoryless — the decision depends only on the
// current node, the destination and the boundary information stored at
// u — so per-hop use (e.g. by a network simulator) and Route produce
// identical trajectories.
func (r *Router) NextHop(u, d mesh.Coord) (mesh.Coord, error) {
	if !r.m.Contains(u) || !r.m.Contains(d) {
		return mesh.Coord{}, fmt.Errorf("route: nodes %v -> %v outside mesh %v", u, d, r.m)
	}
	if u == d {
		return d, nil
	}
	v := r.viewFor(u, d)
	n, err := v.step(v.to(u), v.to(d))
	if err != nil {
		return mesh.Coord{}, err
	}
	return v.from(n), nil
}

// RouteVia routes through the given waypoints in order (the two-phase
// routing of the paper's extensions), concatenating one Wu-protocol
// route per leg.
func (r *Router) RouteVia(s, d mesh.Coord, via ...mesh.Coord) (Path, error) {
	stops := make([]mesh.Coord, 0, len(via)+2)
	stops = append(stops, s)
	stops = append(stops, via...)
	stops = append(stops, d)
	var path Path
	for i := 0; i+1 < len(stops); i++ {
		leg, err := r.Route(stops[i], stops[i+1])
		if err != nil {
			return nil, fmt.Errorf("leg %v -> %v: %w", stops[i], stops[i+1], err)
		}
		if i == 0 {
			path = append(path, leg...)
		} else {
			path = append(path, leg[1:]...)
		}
	}
	return path, nil
}

// viewFor returns the (lazily built) view whose orientation puts d
// weakly northeast of s.
func (r *Router) viewFor(s, d mesh.Coord) *view {
	fx, fy := 0, 0
	if d.X < s.X {
		fx = 1
	}
	if d.Y < s.Y {
		fy = 1
	}
	r.once[fx][fy].Do(func() {
		if r.cache != nil {
			r.views[fx][fy] = r.cache.getOrBuild(r.gen, r.model, fx == 1, fy == 1,
				func() *view { return r.buildView(fx == 1, fy == 1) })
		} else {
			r.views[fx][fy] = r.buildView(fx == 1, fy == 1)
		}
	})
	return r.views[fx][fy]
}

// buildView reflects the blocked grid into the requested orientation
// and computes the boundary lines there.
func (r *Router) buildView(flipX, flipY bool) *view {
	v := &view{m: r.m, flipX: flipX, flipY: flipY}
	v.blocked = make([]bool, len(r.blocked))
	for i, b := range r.blocked {
		if b {
			v.blocked[v.m.Index(v.to(r.m.CoordOf(i)))] = true
		}
	}
	v.bounds = buildBoundaries(v.m, v.blocked)
	return v
}

// to maps a mesh coordinate into view coordinates.
func (v *view) to(c mesh.Coord) mesh.Coord {
	if v.flipX {
		c.X = v.m.Width - 1 - c.X
	}
	if v.flipY {
		c.Y = v.m.Height - 1 - c.Y
	}
	return c
}

// from maps a view coordinate back to mesh coordinates; the reflection
// is an involution.
func (v *view) from(c mesh.Coord) mesh.Coord {
	return v.to(c)
}

// routeInto runs Wu's protocol in view space, where d is weakly
// northeast of s, appending the path onto buf: at every hop pick a
// preferred direction (east or north), except that boundary-line rules
// force the packet to stay on a line while the destination lies in the
// corresponding shadow region of the block. A successful route is
// monotone, so its length is exactly Distance(s,d)+1 and the buffer is
// grown at most once, up front.
func (v *view) routeInto(buf []mesh.Coord, s, d mesh.Coord) ([]mesh.Coord, error) {
	start := len(buf)
	buf = growCoords(buf, mesh.Distance(s, d)+1)
	buf = append(buf, s)
	u := s
	for u != d {
		next, err := v.step(u, d)
		if err != nil {
			return buf[:start], err
		}
		u = next
		buf = append(buf, u)
	}
	return buf, nil
}

// growCoords ensures buf has capacity for need more elements beyond
// its length, reallocating at most once. A warm buffer (the arena
// steady state) never grows; a cold one grows with at least doubling,
// so packing many paths back to back into one fresh slab copies O(n)
// total, not O(n²).
func growCoords(buf []mesh.Coord, need int) []mesh.Coord {
	want := len(buf) + need
	if cap(buf) >= want {
		return buf
	}
	if c := 2 * cap(buf); want < c {
		want = c
	}
	grown := make([]mesh.Coord, len(buf), want)
	copy(grown, buf)
	return grown
}

// step picks the next hop at u.
//
// Critical-path rules: a node on (a merged section of) an obstacle's L1
// whose destination lies in the obstacle's east shadow (region R6) must
// stay on L1 until its intersection with L4; a node on an obstacle's L3
// whose destination lies in the north shadow (region R4) must stay on
// L3 until its intersection with L2. The line successor stored with the
// boundary info encodes the merged (turned/joined) sections, so
// following it carries the packet around intervening fault regions.
//
// Several lines can fire at the same node; their advice composes as
// follows. The next hop must (a) be the successor of at least one fired
// line — stepping off every fired line can strand the packet in a
// pocket the merged sections detour around — and (b) respect the shadow
// constraint of every fired line: while a destination sits in an
// obstacle's east shadow the packet may not climb into the obstacle's
// row range before passing its column range (and symmetrically for
// north shadows). Among hops satisfying both, the adaptive preference
// (larger remaining offset first) decides.
//
// The fire signature settles most hops without reading the refs: when
// the destination's offset bits are clear in sig[u], no line at u can
// fire and the hop is the plain adaptive preference over the two
// blocked probes. Only the rest scan u's CSR span (firedMoves).
func (v *view) step(u, d mesh.Coord) (mesh.Coord, error) {
	w := v.m.Width
	ui := u.Y*w + u.X
	dx, dy := d.X-u.X, d.Y-u.Y
	var okEast, okNorth bool
	if !v.bounds.mayFire(ui, dx, dy) {
		// d is weakly northeast of u, so a positive offset keeps the
		// probed neighbor inside the mesh and at most d's column/row.
		okEast = dx > 0 && !v.blocked[ui+1]
		okNorth = dy > 0 && !v.blocked[ui+w]
	} else {
		okEast, okNorth = v.firedMoves(u, d)
	}

	// Adaptive preference: larger remaining offset first.
	east := mesh.Coord{X: u.X + 1, Y: u.Y}
	north := mesh.Coord{X: u.X, Y: u.Y + 1}
	if dy > dx {
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

// firedMoves scans u's boundary refs for lines that fire toward d and
// reports whether the east and north hops are allowed under them.
func (v *view) firedMoves(u, d mesh.Coord) (okEast, okNorth bool) {
	bs := v.bounds
	w := v.m.Width
	ui := u.Y*w + u.X
	var (
		// Nodes rarely sit on more than a couple of lines at once; the
		// stack-backed buffer keeps the per-hop decision allocation-free.
		firedBuf  [4]int32
		fired     = firedBuf[:0]
		succEast  bool
		succNorth bool
	)
	for j, end := bs.off[ui], bs.off[ui+1]; j < end; j++ {
		r := bs.rectOf(bs.kind[j], bs.run[j])
		var fire bool
		if bs.kind[j] == LineL1 {
			fire = d.X > r.MaxX && d.Y >= r.MinY && d.Y <= r.MaxY
		} else {
			fire = d.Y > r.MaxY && d.X >= r.MinX && d.X <= r.MaxX
		}
		if !fire {
			continue
		}
		fired = append(fired, j)
		switch bs.succDir[j] {
		case succEastDir:
			succEast = true
		case succNorthDir:
			succNorth = true
		}
	}

	usable := func(n mesh.Coord) bool {
		if n.X > d.X || n.Y > d.Y || !v.m.Contains(n) || v.blocked[n.Y*w+n.X] {
			return false
		}
		for _, j := range fired {
			r := bs.rectOf(bs.kind[j], bs.run[j])
			if bs.kind[j] == LineL1 {
				if n.Y >= r.MinY && n.X <= r.MaxX {
					return false
				}
			} else {
				if n.X >= r.MinX && n.Y <= r.MaxY {
					return false
				}
			}
		}
		return true
	}

	okEast = usable(mesh.Coord{X: u.X + 1, Y: u.Y})
	okNorth = usable(mesh.Coord{X: u.X, Y: u.Y + 1})
	if len(fired) > 0 {
		// Constrained: only fired-line successors are candidates.
		okEast = okEast && succEast
		okNorth = okNorth && succNorth
	}
	return okEast, okNorth
}

// oracleScratch pools the full-mesh reachability grid a one-shot
// Oracle call sweeps, so repeated uncached oracle routes reuse the
// bitset rows instead of allocating a fresh O(N) grid per call.
var oracleScratch = sync.Pool{New: func() any { return new(wang.Reach) }}

// Oracle routes with full global information: it walks preferred
// directions guided by the exact reachability DP, so it finds a minimal
// path whenever one exists. It is the baseline the limited-information
// protocol is compared against. Each call pays one full-mesh sweep;
// callers issuing many queries against one blocked grid should memoize
// the sweep in a wang.ReachCache and use OracleFrom.
func Oracle(m mesh.Mesh, blocked []bool, s, d mesh.Coord) (Path, error) {
	if !m.Contains(s) || !m.Contains(d) {
		return nil, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, m)
	}
	r := oracleScratch.Get().(*wang.Reach)
	p, err := OracleFrom(m, blocked, wang.ReachFromInto(r, m, d, blocked), s, d)
	oracleScratch.Put(r)
	return p, err
}

// OracleFrom is Oracle with the destination-rooted reachability sweep
// supplied by the caller (typically from a wang.ReachCache), so that
// repeated oracle routes to one destination cost O(path) instead of
// O(N^2) each. reach must be rooted at d over the same blocked grid.
func OracleFrom(m mesh.Mesh, blocked []bool, reach *wang.Reach, s, d mesh.Coord) (Path, error) {
	if !m.Contains(s) || !m.Contains(d) {
		return nil, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, m)
	}
	out, err := OracleFromInto(nil, m, reach, s, d)
	if err != nil {
		return nil, err
	}
	return Path(out), nil
}

// OracleFromInto is the append-style OracleFrom, stepping on the reach
// grid's bitset words directly: horizontal progress is consumed one
// whole run of set bits at a time (word loads plus a trailing-ones
// count, instead of a per-cell lookup), and vertical probes read the
// next row's word once. reach must be rooted at d over the blocked
// grid the caller routes against; a node's reach bit being set already
// implies the node is not blocked, so the walk consults only the
// bitset. The contract matches RouteInto: the path is appended to dst
// and the extended slice returned, out[len(dst):] being the new path;
// on error the returned slice keeps dst's length.
func OracleFromInto(dst []mesh.Coord, m mesh.Mesh, reach *wang.Reach, s, d mesh.Coord) ([]mesh.Coord, error) {
	if !m.Contains(s) || !m.Contains(d) {
		return dst, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, m)
	}
	if !reach.CanReach(s) {
		return dst, &StuckError{At: s, To: d}
	}
	start := len(dst)
	dst = growCoords(dst, mesh.Distance(s, d)+1)
	dst = append(dst, s)
	bits := reach.Bits()
	sx, sy := 0, 0
	if d.X > s.X {
		sx = 1
	} else if d.X < s.X {
		sx = -1
	}
	if d.Y > s.Y {
		sy = 1
	} else if d.Y < s.Y {
		sy = -1
	}
	u := s
	for u != d {
		// Preferred-direction order matches mesh.AppendPreferredDirs:
		// the horizontal move is probed first, then the vertical one —
		// so consuming the whole horizontal run of reachable nodes at
		// once reproduces the per-hop walk exactly.
		if u.X != d.X {
			var run int
			if sx > 0 {
				run = bits.RunEast(u.X+1, u.Y, d.X-u.X)
			} else {
				run = bits.RunWest(u.X-1, u.Y, u.X-d.X)
			}
			if run > 0 {
				for i := 0; i < run; i++ {
					u.X += sx
					dst = append(dst, u)
				}
				continue
			}
		}
		if u.Y != d.Y {
			if n := (mesh.Coord{X: u.X, Y: u.Y + sy}); bits.Get(n) {
				u = n
				dst = append(dst, u)
				continue
			}
		}
		return dst[:start], &StuckError{At: u, To: d} // unreachable given the reach check
	}
	return dst, nil
}

// DFSRoute is the header-information baseline the paper contrasts its
// information model against (Chen and Shin's depth-first-search
// routing): the packet header carries the set of visited nodes, moves
// are tried preferred-first, and the packet backtracks out of dead
// ends. It delivers whenever source and destination are connected at
// all, but the route need not be minimal; the returned path includes
// backtracking hops, as the physical packet would travel them.
func DFSRoute(m mesh.Mesh, blocked []bool, s, d mesh.Coord) (Path, error) {
	if !m.Contains(s) || !m.Contains(d) {
		return nil, fmt.Errorf("route: endpoints %v -> %v outside mesh %v", s, d, m)
	}
	if blocked[m.Index(s)] || blocked[m.Index(d)] {
		return nil, fmt.Errorf("route: endpoints %v -> %v inside a fault region", s, d)
	}
	visited := make([]bool, m.Size())
	visited[m.Index(s)] = true
	path := Path{s}
	stack := []mesh.Coord{s}

	// firstCandidate returns the best unvisited usable neighbor of u:
	// preferred directions first, then spares.
	var dirBuf [4]mesh.Dir
	firstCandidate := func(u mesh.Coord) (mesh.Coord, bool) {
		dirs := mesh.AppendPreferredDirs(dirBuf[:0], u, d)
		dirs = mesh.AppendSpareDirs(dirs, u, d)
		for _, dir := range dirs {
			n := u.Add(dir.Offset())
			if m.Contains(n) && !blocked[m.Index(n)] && !visited[m.Index(n)] {
				return n, true
			}
		}
		return mesh.Coord{}, false
	}

	for len(stack) > 0 {
		u := stack[len(stack)-1]
		if u == d {
			return path, nil
		}
		moved := false
		if n, ok := firstCandidate(u); ok {
			visited[m.Index(n)] = true
			stack = append(stack, n)
			path = append(path, n)
			moved = true
		}
		if !moved {
			// Backtrack: physically retrace to the previous node.
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				path = append(path, stack[len(stack)-1])
			}
		}
	}
	return nil, &StuckError{At: s, To: d}
}
