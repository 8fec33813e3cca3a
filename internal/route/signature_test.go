package route

import (
	"math/rand"
	"testing"

	"extmesh/internal/fault"
	"extmesh/internal/mesh"
)

// TestSigBits pins the signature's offset-to-bit map: offsets below 1
// have no bit, offsets 1..31 one bit each, and every offset from 32 on
// shares the top bit of its half.
func TestSigBits(t *testing.T) {
	for _, c := range []struct {
		o    int
		want uint64
	}{{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {31, 1 << 30}, {32, 1 << 31}, {33, 1 << 31}, {5000, 1 << 31}} {
		if got := sigBit(c.o); got != c.want {
			t.Errorf("sigBit(%d) = %#x, want %#x", c.o, got, c.want)
		}
	}
	for _, c := range []struct {
		lo, hi int
		want   uint64
	}{{1, 1, 1}, {3, 5, 0b11100}, {30, 100, 0b111 << 29}, {40, 90, 1 << 31}, {32, 32, 1 << 31}} {
		if got := sigSpan(c.lo, c.hi); got != c.want {
			t.Errorf("sigSpan(%d, %d) = %#x, want %#x", c.lo, c.hi, got, c.want)
		}
	}
}

// TestSignatureSound checks that the fire signature never hides a
// firing line, the property the fast path of view.step rests on: over
// arbitrary, block and MCC grids, in all four orientation views, for
// every node and every destination weakly northeast of it, some ref at
// the node firing implies mayFire. The meshes are at least 64 nodes a
// side and carry long stamped runs, so fires at offsets of 32 and more
// (the clamped top bit) and fires on turned line sections both occur;
// the test fails if either goes unexercised.
func TestSignatureSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var fires, clamped, turned int
	check := func(name string, m mesh.Mesh, blocked []bool) {
		r := NewRouter(m, blocked)
		for fx := 0; fx < 2; fx++ {
			for fy := 0; fy < 2; fy++ {
				v := r.buildView(fx == 1, fy == 1)
				f, c, tu := checkSignature(t, name, v)
				fires, clamped, turned = fires+f, clamped+c, turned+tu
			}
		}
	}
	for i := 0; i < 4; i++ {
		m := mesh.Mesh{Width: 64 + rng.Intn(40), Height: 64 + rng.Intn(40)}
		blocked := randomGrid(m, 0.02+rng.Float64()*0.1, rng)
		stampRuns(m, blocked, rng)
		check("arbitrary", m, blocked)
	}
	for _, k := range []int{40, 150, 400} {
		m := mesh.Mesh{Width: 64 + rng.Intn(40), Height: 64 + rng.Intn(40)}
		faults, err := fault.RandomFaults(m, k, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := fault.NewScenario(m, faults)
		if err != nil {
			t.Fatal(err)
		}
		check("blocks", m, fault.BuildBlocks(sc).BlockedGrid())
		check("mcc1", m, fault.BuildMCC(sc, fault.TypeOne).BlockedGrid())
		check("mcc2", m, fault.BuildMCC(sc, fault.TypeTwo).BlockedGrid())
	}
	if fires == 0 || clamped == 0 || turned == 0 {
		t.Fatalf("coverage too thin: %d fires, %d at clamped offsets, %d on turned sections", fires, clamped, turned)
	}
	t.Logf("%d fires checked, %d at clamped offsets, %d on turned sections", fires, clamped, turned)
}

// stampRuns blocks a few long vertical and horizontal runs, so lines
// span offsets past the signature's clamp and turn around them.
func stampRuns(m mesh.Mesh, blocked []bool, rng *rand.Rand) {
	for i := 0; i < 3; i++ {
		x, y := rng.Intn(m.Width), 1+rng.Intn(m.Height/3)
		for n := 32 + rng.Intn(m.Height-y-32); n > 0; n-- {
			blocked[m.Index(mesh.Coord{X: x, Y: y})] = true
			y++
		}
		x, y = 1+rng.Intn(m.Width/3), rng.Intn(m.Height)
		for n := 32 + rng.Intn(m.Width-x-32); n > 0; n-- {
			blocked[m.Index(mesh.Coord{X: x, Y: y})] = true
			x++
		}
	}
}

// checkSignature runs the soundness check over one view and returns
// how many (node, destination, ref) fires it saw, how many of them at
// an offset of 32 or more, and how many on a turned line section. It
// enumerates each ref's firing destinations directly: an L1 ref fires
// toward the columns east of its run within the run's rows, an L3 ref
// toward the rows north of its run within the run's columns; both sets
// lie northeast of the node.
func checkSignature(t *testing.T, name string, v *view) (fires, clamped, turned int) {
	t.Helper()
	bs := v.bounds
	m := v.m
	for ui := 0; ui < m.Size(); ui++ {
		start, end := bs.off[ui], bs.off[ui+1]
		if start == end && bs.sig[ui] != 0 {
			t.Fatalf("%s %v: node %v has no refs but signature %#x", name, m, m.CoordOf(ui), bs.sig[ui])
		}
		u := m.CoordOf(ui)
		for j := start; j < end; j++ {
			r := bs.rectOf(bs.kind[j], bs.run[j])
			dests := mesh.Rect{MinX: r.MaxX + 1, MinY: r.MinY, MaxX: m.Width - 1, MaxY: r.MaxY}
			offTurn := u.Y != r.MinY-1
			if bs.kind[j] == LineL3 {
				dests = mesh.Rect{MinX: r.MinX, MinY: r.MaxY + 1, MaxX: r.MaxX, MaxY: m.Height - 1}
				offTurn = u.X != r.MinX-1
			}
			if dests.MinX < u.X || dests.MinY < u.Y {
				t.Fatalf("%s %v: %v ref %v fires toward a destination not northeast of it", name, m, u, r)
			}
			for y := dests.MinY; y <= dests.MaxY; y++ {
				for x := dests.MinX; x <= dests.MaxX; x++ {
					if !bs.mayFire(ui, x-u.X, y-u.Y) {
						t.Fatalf("%s %v: %v ref %v fires toward %v but the signature %#x rules it out",
							name, m, u, r, mesh.Coord{X: x, Y: y}, bs.sig[ui])
					}
					fires++
					if (bs.kind[j] == LineL1 && y-u.Y >= 32) || (bs.kind[j] == LineL3 && x-u.X >= 32) {
						clamped++
					}
					if offTurn {
						turned++
					}
				}
			}
		}
	}
	return fires, clamped, turned
}
