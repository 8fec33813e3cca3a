package route

import (
	"extmesh/internal/mesh"
)

// LineKind identifies the boundary line a node belongs to, in the
// normalized orientation where the destination lies northeast of the
// source. L1 is the horizontal line below an obstacle (carrying the
// rule "stay below the line until east of the obstacle" for east-shadow
// destinations); L3 is the vertical line west of an obstacle (carrying
// the matching rule for north-shadow destinations).
type LineKind uint8

// Boundary line kinds relevant to northeast routing.
const (
	LineL1 LineKind = iota + 1
	LineL3
)

// String names the line kind.
func (k LineKind) String() string {
	switch k {
	case LineL1:
		return "L1"
	case LineL3:
		return "L3"
	}
	return "?"
}

// Successor directions of a boundary line at a node, denormalized at
// build time so the per-hop decision never resolves a coordinate.
const (
	succNoneDir  uint8 = iota // the line ends here
	succEastDir               // the next line node is the east neighbor
	succNorthDir              // the next line node is the north neighbor
)

// cellRef is one piece of boundary information during construction:
// the node it is stored at, the obstacle run the line belongs to, the
// line kind, and the next node of the line toward the obstacle (-1
// when the line ends here). The build walks emit cellRefs in line
// order; the counting sort below regroups them by node.
type cellRef struct {
	cell int32
	run  int32
	kind LineKind
	succ int32
}

// boundarySet holds, for one mesh orientation, the boundary-line
// information of every node: exactly the limited information the
// paper's distribution protocol installs along the lines, including the
// merged (turned/joined) sections around intervening fault regions.
//
// Obstacle geometry is kept as maximal runs of blocked nodes rather
// than whole rectangles: vertical runs carry L1 lines and horizontal
// runs carry L3 lines. For the rectangular blocks of the block fault
// model the union of per-run rules is equivalent to the per-block rules
// of the paper; for the rectilinear-monotone MCCs the runs follow the
// staircase contour exactly, where a bounding rectangle would
// over-constrain the packet.
//
// Storage is a CSR-style flat layout: node i's refs occupy positions
// off[i]..off[i+1] of the packed parallel arrays, so the lookup in
// view.step is two adjacent int32 loads instead of a hash probe, and
// iterating a node's refs walks contiguous memory.
type boundarySet struct {
	m     mesh.Mesh
	hRuns []mesh.Rect // maximal horizontal runs (height 1)
	vRuns []mesh.Rect // maximal vertical runs (width 1)

	off []int32 // len m.Size()+1; node i's refs at [off[i], off[i+1])

	// sig[i] is node i's fire signature (sigSpan), tested by view.step
	// before it touches the refs: no bit, no firing line.
	sig []uint64

	// Parallel per-ref arrays, indexed by the off spans.
	run     []int32 // obstacle run (into hRuns or vRuns by kind)
	kind    []LineKind
	succDir []uint8 // succNone, succEast or succNorth
}

// buildBoundaries derives the runs of the blocked grid and lays out the
// merged L1/L3 polylines.
func buildBoundaries(m mesh.Mesh, blocked []bool) *boundarySet {
	bs := &boundarySet{m: m}
	bs.hRuns = HorizontalRuns(m, blocked)
	bs.vRuns = VerticalRuns(m, blocked)
	var refs []cellRef
	for i, r := range bs.vRuns {
		refs = bs.walkL1(refs, int32(i), r, blocked)
	}
	for i, r := range bs.hRuns {
		refs = bs.walkL3(refs, int32(i), r, blocked)
	}
	bs.pack(refs)
	return bs
}

// pack lays the collected refs out in CSR form: a stable counting sort
// by node, then the per-ref fields split into parallel arrays, with
// each ref's run span ORed into its node's fire signature.
func (bs *boundarySet) pack(refs []cellRef) {
	n := bs.m.Size()
	bs.off = make([]int32, n+1)
	for _, r := range refs {
		bs.off[r.cell+1]++
	}
	for i := 0; i < n; i++ {
		bs.off[i+1] += bs.off[i]
	}
	k := len(refs)
	bs.sig = make([]uint64, n)
	bs.run = make([]int32, k)
	bs.kind = make([]LineKind, k)
	bs.succDir = make([]uint8, k)
	next := make([]int32, n)
	copy(next, bs.off[:n])
	w := int32(bs.m.Width)
	for _, r := range refs {
		j := next[r.cell]
		next[r.cell]++
		bs.run[j] = r.run
		bs.kind[j] = r.kind
		switch r.succ {
		case -1:
			bs.succDir[j] = succNoneDir
		case r.cell + 1:
			bs.succDir[j] = succEastDir
		case r.cell + w:
			bs.succDir[j] = succNorthDir
		default:
			// The walks only ever hand a line to the east or north
			// neighbor; anything else would be a construction bug.
			panic("route: boundary successor is not an east/north neighbor")
		}
		rect := bs.rectOf(r.kind, r.run)
		if r.kind == LineL1 {
			y := int(r.cell / w)
			bs.sig[r.cell] |= sigSpan(rect.MinY-y, rect.MaxY-y)
		} else {
			x := int(r.cell % w)
			bs.sig[r.cell] |= sigSpan(rect.MinX-x, rect.MaxX-x) << 32
		}
	}
}

// sigSpan returns the signature bits of the offsets lo..hi, 1 <= lo <= hi.
//
// A ref fires only when the destination's offset from the node along
// one axis lies in the run's span: for an L1 ref the row offset
// d.Y-u.Y must lie in [MinY-u.Y, MaxY-u.Y], for an L3 ref the column
// offset d.X-u.X in [MinX-u.X, MaxX-u.X]. L1 lines lie strictly south
// of their run and L3 lines strictly west, so both spans start at an
// offset of at least 1. A signature half maps offset o to bit
// min(o,32)-1: every offset of 32 or more shares the top bit, so the
// test may pass for a far destination whose ref does not fire (the
// exact scan then decides), but never fails for one whose ref does.
func sigSpan(lo, hi int) uint64 {
	lo, hi = min(lo, 32), min(hi, 32)
	return (uint64(1)<<hi - 1) &^ (uint64(1)<<(lo-1) - 1)
}

// sigBit returns the signature bit of offset o, or 0 when o < 1 (no
// run spans it).
func sigBit(o int) uint64 {
	return uint64(1) << (uint(min(o, 32)) - 1)
}

// mayFire reports whether a line at node i could fire toward the
// destination dx columns and dy rows away. False is exact.
func (bs *boundarySet) mayFire(i, dx, dy int) bool {
	return bs.sig[i]&(sigBit(dy)|sigBit(dx)<<32) != 0
}

// rectOf resolves a (kind, run) pair to its obstacle run rectangle.
func (bs *boundarySet) rectOf(kind LineKind, run int32) mesh.Rect {
	if kind == LineL1 {
		return bs.vRuns[run]
	}
	return bs.hRuns[run]
}

// HorizontalRuns returns the maximal horizontal runs of blocked nodes
// (height-1 rectangles). They carry the L3 boundary lines.
func HorizontalRuns(m mesh.Mesh, blocked []bool) []mesh.Rect {
	var runs []mesh.Rect
	for y := 0; y < m.Height; y++ {
		x := 0
		for x < m.Width {
			if !blocked[y*m.Width+x] {
				x++
				continue
			}
			start := x
			for x < m.Width && blocked[y*m.Width+x] {
				x++
			}
			runs = append(runs, mesh.Rect{MinX: start, MinY: y, MaxX: x - 1, MaxY: y})
		}
	}
	return runs
}

// VerticalRuns returns the maximal vertical runs of blocked nodes
// (width-1 rectangles). They carry the L1 boundary lines.
func VerticalRuns(m mesh.Mesh, blocked []bool) []mesh.Rect {
	var runs []mesh.Rect
	for x := 0; x < m.Width; x++ {
		y := 0
		for y < m.Height {
			if !blocked[y*m.Width+x] {
				y++
				continue
			}
			start := y
			for y < m.Height && blocked[y*m.Width+x] {
				y++
			}
			runs = append(runs, mesh.Rect{MinX: x, MinY: start, MaxX: x, MaxY: y - 1})
		}
	}
	return runs
}

// add records that node c carries info for the line (run, kind) whose
// next node toward the obstacle is succ.
func (bs *boundarySet) add(refs []cellRef, c mesh.Coord, run int32, kind LineKind, succ mesh.Coord) []cellRef {
	i := int32(bs.m.Index(c))
	s := int32(-1)
	if bs.m.Contains(succ) {
		s = int32(bs.m.Index(succ))
	}
	return append(refs, cellRef{cell: i, run: run, kind: kind, succ: s})
}

// walkL1 lays out the L1 line of the vertical run r: the node just
// below the run, then the contour extending west. When the line meets
// another fault region it turns south along its east side down to that
// region's own L1 level and continues west, joining the other line
// (the paper's turn/join rule), which the contour walk performs one
// step at a time: go west when the node is free, otherwise slide one
// node south and retry.
func (bs *boundarySet) walkL1(refs []cellRef, run int32, r mesh.Rect, blocked []bool) []cellRef {
	cur := mesh.Coord{X: r.MinX, Y: r.MinY - 1}
	if !bs.m.Contains(cur) || blocked[bs.m.Index(cur)] {
		return refs // run touches the south edge or sits in a pocket
	}
	first := mesh.Coord{X: r.MinX + 1, Y: r.MinY - 1}
	if !bs.m.Contains(first) || blocked[bs.m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	refs = bs.add(refs, cur, run, LineL1, first)
	for {
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 {
			return refs
		}
		if !blocked[bs.m.Index(west)] {
			refs = bs.add(refs, west, run, LineL1, cur)
			cur = west
			continue
		}
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 || blocked[bs.m.Index(south)] {
			return refs // mesh edge or pocket: the line ends
		}
		refs = bs.add(refs, south, run, LineL1, cur)
		cur = south
	}
}

// walkL3 lays out the L3 line of the horizontal run r: the node just
// west of the run, then the contour extending south, turning west
// around intervening fault regions: go south when the node is free,
// otherwise slide one node west and retry.
func (bs *boundarySet) walkL3(refs []cellRef, run int32, r mesh.Rect, blocked []bool) []cellRef {
	cur := mesh.Coord{X: r.MinX - 1, Y: r.MinY}
	if !bs.m.Contains(cur) || blocked[bs.m.Index(cur)] {
		return refs // run touches the west edge or sits in a pocket
	}
	first := mesh.Coord{X: r.MinX - 1, Y: r.MinY + 1}
	if !bs.m.Contains(first) || blocked[bs.m.Index(first)] {
		first = mesh.Coord{X: -1, Y: -1}
	}
	refs = bs.add(refs, cur, run, LineL3, first)
	for {
		south := mesh.Coord{X: cur.X, Y: cur.Y - 1}
		if south.Y < 0 {
			return refs
		}
		if !blocked[bs.m.Index(south)] {
			refs = bs.add(refs, south, run, LineL3, cur)
			cur = south
			continue
		}
		west := mesh.Coord{X: cur.X - 1, Y: cur.Y}
		if west.X < 0 || blocked[bs.m.Index(west)] {
			return refs
		}
		refs = bs.add(refs, west, run, LineL3, cur)
		cur = west
	}
}

// LineTag is the exported form of one piece of boundary information
// stored at a node: the obstacle run the line belongs to and the line
// kind. It is used to cross-check the distributed information
// dissemination against this package's direct computation.
type LineTag struct {
	Obstacle mesh.Rect
	Kind     LineKind
}

// Lines computes the complete boundary-line information of the grid in
// the native (unreflected) orientation: for every node, the tags of the
// L1/L3 lines passing through it.
func Lines(m mesh.Mesh, blocked []bool) map[mesh.Coord][]LineTag {
	bs := buildBoundaries(m, blocked)
	out := make(map[mesh.Coord][]LineTag)
	for i := 0; i < m.Size(); i++ {
		start, end := bs.off[i], bs.off[i+1]
		if start == end {
			continue
		}
		tags := make([]LineTag, 0, end-start)
		for j := start; j < end; j++ {
			tags = append(tags, LineTag{Obstacle: bs.rectOf(bs.kind[j], bs.run[j]), Kind: bs.kind[j]})
		}
		out[m.CoordOf(i)] = tags
	}
	return out
}
