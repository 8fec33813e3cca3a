package mesh

import (
	"testing"
	"testing/quick"
)

func TestNew(t *testing.T) {
	tests := []struct {
		name    string
		w, h    int
		wantErr bool
	}{
		{name: "square", w: 8, h: 8},
		{name: "wide", w: 20, h: 3},
		{name: "tall", w: 1, h: 9},
		{name: "single", w: 1, h: 1},
		{name: "zero width", w: 0, h: 5, wantErr: true},
		{name: "zero height", w: 5, h: 0, wantErr: true},
		{name: "negative", w: -3, h: 4, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := New(tt.w, tt.h)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("New(%d,%d) = %v, want error", tt.w, tt.h, m)
				}
				return
			}
			if err != nil {
				t.Fatalf("New(%d,%d): %v", tt.w, tt.h, err)
			}
			if m.Width != tt.w || m.Height != tt.h {
				t.Errorf("dims = %dx%d, want %dx%d", m.Width, m.Height, tt.w, tt.h)
			}
			if got := m.Size(); got != tt.w*tt.h {
				t.Errorf("Size() = %d, want %d", got, tt.w*tt.h)
			}
		})
	}
}

func TestMeshContains(t *testing.T) {
	m := Mesh{Width: 4, Height: 3}
	tests := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0}, true},
		{Coord{3, 2}, true},
		{Coord{4, 2}, false},
		{Coord{3, 3}, false},
		{Coord{-1, 0}, false},
		{Coord{0, -1}, false},
		{Coord{2, 1}, true},
	}
	for _, tt := range tests {
		if got := m.Contains(tt.c); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.c, got, tt.want)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	m := Mesh{Width: 7, Height: 5}
	seen := make(map[int]bool, m.Size())
	for y := 0; y < m.Height; y++ {
		for x := 0; x < m.Width; x++ {
			c := Coord{X: x, Y: y}
			i := m.Index(c)
			if i < 0 || i >= m.Size() {
				t.Fatalf("Index(%v) = %d out of range", c, i)
			}
			if seen[i] {
				t.Fatalf("Index(%v) = %d already used", c, i)
			}
			seen[i] = true
			if got := m.CoordOf(i); got != c {
				t.Fatalf("CoordOf(Index(%v)) = %v", c, got)
			}
		}
	}
}

func TestNeighbors(t *testing.T) {
	m := Mesh{Width: 5, Height: 5}
	tests := []struct {
		name string
		c    Coord
		want int
	}{
		{name: "interior", c: Coord{2, 2}, want: 4},
		{name: "edge", c: Coord{0, 2}, want: 3},
		{name: "corner", c: Coord{0, 0}, want: 2},
		{name: "far corner", c: Coord{4, 4}, want: 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ns := m.Neighbors(nil, tt.c)
			if len(ns) != tt.want {
				t.Fatalf("Neighbors(%v) = %v (len %d), want %d", tt.c, ns, len(ns), tt.want)
			}
			if got := m.Degree(tt.c); got != tt.want {
				t.Errorf("Degree(%v) = %d, want %d", tt.c, got, tt.want)
			}
			for _, n := range ns {
				if !m.Contains(n) {
					t.Errorf("neighbor %v outside mesh", n)
				}
				if Distance(tt.c, n) != 1 {
					t.Errorf("neighbor %v not adjacent to %v", n, tt.c)
				}
			}
		})
	}
}

func TestDistance(t *testing.T) {
	tests := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 4}, 7},
		{Coord{3, 4}, Coord{0, 0}, 7},
		{Coord{2, 2}, Coord{2, 5}, 3},
		{Coord{-1, -1}, Coord{1, 1}, 4},
	}
	for _, tt := range tests {
		if got := Distance(tt.a, tt.b); got != tt.want {
			t.Errorf("Distance(%v,%v) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestDistanceProperties(t *testing.T) {
	symmetric := func(ax, ay, bx, by int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		return Distance(a, b) == Distance(b, a) && Distance(a, b) >= 0
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	triangle := func(ax, ay, bx, by, cx, cy int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		c := Coord{int(cx), int(cy)}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
}

func TestDirections(t *testing.T) {
	for _, d := range Directions() {
		if !d.Valid() {
			t.Errorf("direction %v invalid", d)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("Opposite not involutive for %v", d)
		}
		off := d.Offset()
		if abs(off.X)+abs(off.Y) != 1 {
			t.Errorf("Offset(%v) = %v not unit", d, off)
		}
		opp := d.Opposite().Offset()
		if off.X != -opp.X || off.Y != -opp.Y {
			t.Errorf("Offset(%v)=%v not negated by opposite %v", d, off, opp)
		}
	}
	if Dir(0).Valid() || Dir(5).Valid() {
		t.Error("out-of-range Dir reported valid")
	}
	if got := Dir(0).String(); got != "invalid" {
		t.Errorf("Dir(0).String() = %q", got)
	}
}

func TestQuadrant(t *testing.T) {
	s := Coord{5, 5}
	tests := []struct {
		d    Coord
		want int
	}{
		{Coord{8, 9}, 1},
		{Coord{5, 5}, 1},
		{Coord{9, 5}, 1},
		{Coord{5, 9}, 1},
		{Coord{2, 8}, 2},
		{Coord{4, 5}, 2},
		{Coord{1, 1}, 3},
		{Coord{4, 4}, 3},
		{Coord{9, 2}, 4},
		{Coord{5, 4}, 4},
	}
	for _, tt := range tests {
		if got := Quadrant(s, tt.d); got != tt.want {
			t.Errorf("Quadrant(%v,%v) = %d, want %d", s, tt.d, got, tt.want)
		}
	}
}

func TestPreferredAndSpareDirs(t *testing.T) {
	u := Coord{5, 5}
	tests := []struct {
		name     string
		d        Coord
		wantPref []Dir
	}{
		{name: "northeast", d: Coord{8, 9}, wantPref: []Dir{East, North}},
		{name: "due east", d: Coord{9, 5}, wantPref: []Dir{East}},
		{name: "southwest", d: Coord{1, 2}, wantPref: []Dir{West, South}},
		{name: "same node", d: Coord{5, 5}, wantPref: nil},
		{name: "due south", d: Coord{5, 0}, wantPref: []Dir{South}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			pref := PreferredDirs(u, tt.d)
			if len(pref) != len(tt.wantPref) {
				t.Fatalf("PreferredDirs = %v, want %v", pref, tt.wantPref)
			}
			got := make(map[Dir]bool, len(pref))
			for _, p := range pref {
				got[p] = true
			}
			for _, w := range tt.wantPref {
				if !got[w] {
					t.Fatalf("PreferredDirs = %v, want %v", pref, tt.wantPref)
				}
			}
			spare := SpareDirs(u, tt.d)
			if len(pref)+len(spare) != 4 {
				t.Fatalf("pref %v + spare %v do not partition directions", pref, spare)
			}
			for _, s := range spare {
				if got[s] {
					t.Fatalf("direction %v both preferred and spare", s)
				}
			}
		})
	}
}

func TestPreferredDirsReduceDistance(t *testing.T) {
	f := func(ux, uy, dx, dy int8) bool {
		u := Coord{int(ux), int(uy)}
		d := Coord{int(dx), int(dy)}
		for _, p := range PreferredDirs(u, d) {
			if Distance(u.Add(p.Offset()), d) != Distance(u, d)-1 {
				return false
			}
		}
		for _, s := range SpareDirs(u, d) {
			if Distance(u.Add(s.Offset()), d) != Distance(u, d)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCenter(t *testing.T) {
	tests := []struct {
		m    Mesh
		want Coord
	}{
		{Mesh{Width: 200, Height: 200}, Coord{100, 100}},
		{Mesh{Width: 5, Height: 5}, Coord{2, 2}},
		{Mesh{Width: 1, Height: 1}, Coord{0, 0}},
	}
	for _, tt := range tests {
		if got := tt.m.Center(); got != tt.want {
			t.Errorf("%v.Center() = %v, want %v", tt.m, got, tt.want)
		}
	}
}

func TestStringersAndHelpers(t *testing.T) {
	if got := (Coord{X: 3, Y: -2}).String(); got != "(3,-2)" {
		t.Errorf("Coord.String = %q", got)
	}
	if got := (Coord{X: 5, Y: 7}).Sub(Coord{X: 2, Y: 3}); got != (Coord{X: 3, Y: 4}) {
		t.Errorf("Sub = %v", got)
	}
	m := Mesh{Width: 7, Height: 4}
	if got := m.String(); got != "7x4" {
		t.Errorf("Mesh.String = %q", got)
	}
	if got := m.Bounds(); got != (Rect{MinX: 0, MinY: 0, MaxX: 6, MaxY: 3}) {
		t.Errorf("Bounds = %v", got)
	}
	if got := Dir(0).Offset(); got != (Coord{}) {
		t.Errorf("invalid Offset = %v", got)
	}
	if got := Dir(0).Opposite(); got != Dir(0) {
		t.Errorf("invalid Opposite = %v", got)
	}
	for _, d := range Directions() {
		if d.String() == "invalid" {
			t.Errorf("direction %d renders invalid", d)
		}
	}
}
