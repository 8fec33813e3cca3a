package mesh

// Dir identifies one of the four mesh directions. East is +X, North is
// +Y, matching the paper's extended-safety-level tuple order (E, S, W, N).
type Dir int

// The four mesh directions, starting at one so the zero value is invalid.
const (
	East Dir = iota + 1
	South
	West
	North
)

var _dirNames = [...]string{East: "E", South: "S", West: "W", North: "N"}

var _dirOffsets = [...]Coord{
	East:  {X: 1, Y: 0},
	South: {X: 0, Y: -1},
	West:  {X: -1, Y: 0},
	North: {X: 0, Y: 1},
}

// Directions returns the four directions in (E, S, W, N) order.
func Directions() [4]Dir {
	return [4]Dir{East, South, West, North}
}

// Valid reports whether d is one of the four directions.
func (d Dir) Valid() bool {
	return d >= East && d <= North
}

// String returns the single-letter name of the direction.
func (d Dir) String() string {
	if !d.Valid() {
		return "invalid"
	}
	return _dirNames[d]
}

// Offset returns the unit coordinate delta of one hop in direction d.
func (d Dir) Offset() Coord {
	if !d.Valid() {
		return Coord{}
	}
	return _dirOffsets[d]
}

// Opposite returns the direction pointing the other way.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	default:
		return 0
	}
}

// Quadrant returns the quadrant (1..4) of d relative to s following the
// paper's convention: quadrant I is northeast (xd >= xs, yd >= ys),
// II northwest, III southwest, IV southeast. Ties on an axis are folded
// into the quadrant that still permits monotone routing: a destination
// due east is in quadrant I territory for routing purposes. d == s maps
// to quadrant 1.
func Quadrant(s, d Coord) int {
	switch {
	case d.X >= s.X && d.Y >= s.Y:
		return 1
	case d.X < s.X && d.Y >= s.Y:
		return 2
	case d.X < s.X && d.Y < s.Y:
		return 3
	default:
		return 4
	}
}

// PreferredDirs returns the preferred directions (those that reduce the
// distance to d) at node u. It returns zero, one or two directions; two
// exactly when u and d differ in both dimensions.
func PreferredDirs(u, d Coord) []Dir {
	return AppendPreferredDirs(nil, u, d)
}

// AppendPreferredDirs appends the preferred directions at u heading
// for d to dst and returns the extended slice. Passing a slice backed
// by a stack buffer ([4]Dir) makes per-hop routing decisions
// allocation-free.
func AppendPreferredDirs(dst []Dir, u, d Coord) []Dir {
	switch {
	case d.X > u.X:
		dst = append(dst, East)
	case d.X < u.X:
		dst = append(dst, West)
	}
	switch {
	case d.Y > u.Y:
		dst = append(dst, North)
	case d.Y < u.Y:
		dst = append(dst, South)
	}
	return dst
}

// SpareDirs returns the spare directions (those that increase the
// distance to d) at node u.
func SpareDirs(u, d Coord) []Dir {
	return AppendSpareDirs(nil, u, d)
}

// AppendSpareDirs appends the spare directions at u heading for d to
// dst and returns the extended slice; the allocation-free counterpart
// of SpareDirs.
func AppendSpareDirs(dst []Dir, u, d Coord) []Dir {
	var prefBuf [2]Dir
	pref := AppendPreferredDirs(prefBuf[:0], u, d)
	for _, dir := range Directions() {
		spare := true
		for _, p := range pref {
			if p == dir {
				spare = false
				break
			}
		}
		if spare {
			dst = append(dst, dir)
		}
	}
	return dst
}
