package inject

import (
	"reflect"
	"testing"

	"extmesh/internal/fault"
	"extmesh/internal/mesh"
	"extmesh/internal/safety"
)

func testMesh(t *testing.T) mesh.Mesh {
	t.Helper()
	return mesh.Mesh{Width: 16, Height: 16}
}

func TestScheduleValidate(t *testing.T) {
	m := testMesh(t)
	cases := []struct {
		name string
		s    Schedule
		ok   bool
	}{
		{"empty", nil, true},
		{"sorted", Schedule{{Cycle: 1, Node: mesh.Coord{X: 2, Y: 3}, Op: Fail}, {Cycle: 5, Node: mesh.Coord{X: 2, Y: 3}, Op: Recover}}, true},
		{"bad_op", Schedule{{Cycle: 1, Node: mesh.Coord{X: 2, Y: 3}, Op: 0}}, false},
		{"negative_cycle", Schedule{{Cycle: -1, Node: mesh.Coord{X: 2, Y: 3}, Op: Fail}}, false},
		{"out_of_order", Schedule{{Cycle: 5, Node: mesh.Coord{X: 2, Y: 3}, Op: Fail}, {Cycle: 1, Node: mesh.Coord{X: 4, Y: 4}, Op: Fail}}, false},
		{"outside_mesh", Schedule{{Cycle: 1, Node: mesh.Coord{X: 99, Y: 3}, Op: Fail}}, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(m); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	m := testMesh(t)
	a, err := Random(m, 5000, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(m, 5000, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	if err := a.Validate(m); err != nil {
		t.Errorf("generated schedule invalid: %v", err)
	}
	// Nodes are distinct (permanent faults never repeat) and the
	// generator stops at half the mesh.
	seen := map[mesh.Coord]bool{}
	for _, e := range a {
		if e.Op != Fail {
			t.Fatalf("random schedule contains %v", e)
		}
		if seen[e.Node] {
			t.Fatalf("node %v failed twice", e.Node)
		}
		seen[e.Node] = true
	}
	if len(a) > m.Size()/2+1 {
		t.Errorf("generator failed %d nodes, want at most half of %d", len(a), m.Size())
	}
	if zero, err := Random(m, 1000, 0, 1); err != nil || len(zero) != 0 {
		t.Errorf("rate 0 gave %d events, err %v", len(zero), err)
	}
	if _, err := Random(m, 1000, 1.5, 1); err == nil {
		t.Error("rate above 1 should fail")
	}
	if _, err := Random(m, 0, 0.1, 1); err == nil {
		t.Error("zero cycles should fail")
	}
}

func TestBurstsClustered(t *testing.T) {
	m := testMesh(t)
	s, err := Bursts(m, 200, 3, 6, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(s) == 0 || len(s) > 18 {
		t.Fatalf("3 bursts of up to 6 gave %d events", len(s))
	}
	// Events at the same cycle form a spatial cluster: max pairwise
	// Chebyshev distance within a burst is bounded by 2*spread.
	byCycle := map[int][]mesh.Coord{}
	seen := map[mesh.Coord]bool{}
	for _, e := range s {
		if seen[e.Node] {
			t.Fatalf("node %v failed twice", e.Node)
		}
		seen[e.Node] = true
		byCycle[e.Cycle] = append(byCycle[e.Cycle], e.Node)
	}
	cheb := func(a, b mesh.Coord) int {
		dx, dy := a.X-b.X, a.Y-b.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return max(dx, dy)
	}
	for c, nodes := range byCycle {
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if d := cheb(nodes[i], nodes[j]); d > 4 {
					t.Errorf("burst at cycle %d spans Chebyshev distance %d > 2*spread", c, d)
				}
			}
		}
	}
}

func TestTransientPairsFailWithRecover(t *testing.T) {
	m := testMesh(t)
	s, err := Transient(m, 400, 0.3, 25, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	fails, recovers := 0, 0
	pending := map[mesh.Coord]int{} // node -> fail cycle
	for _, e := range s {
		switch e.Op {
		case Fail:
			fails++
			pending[e.Node] = e.Cycle
		case Recover:
			recovers++
			fc, ok := pending[e.Node]
			if !ok {
				t.Fatalf("recover of %v without a preceding fail", e.Node)
			}
			if e.Cycle != fc+25 {
				t.Errorf("node %v recovered after %d cycles, want 25", e.Node, e.Cycle-fc)
			}
			delete(pending, e.Node)
		}
	}
	if fails == 0 || fails != recovers {
		t.Errorf("got %d fails, %d recovers; want equal and nonzero", fails, recovers)
	}
	if _, err := Transient(m, 400, 0.1, 0, 1); err == nil {
		t.Error("non-positive repair delay should fail")
	}
}

func TestParse(t *testing.T) {
	m := testMesh(t)
	for _, spec := range []string{"", "none"} {
		s, err := Parse(m, 100, 1, spec, 4096)
		if err != nil || len(s) != 0 {
			t.Errorf("Parse(%q) = %v, %v; want empty", spec, s, err)
		}
	}
	if s, err := Parse(m, 1000, 3, "random:rate=0.5", 4096); err != nil || len(s) == 0 {
		t.Errorf("random spec: %d events, err %v", len(s), err)
	}
	if s, err := Parse(m, 200, 3, "bursts:count=2,size=4,spread=1", 4096); err != nil || len(s) == 0 {
		t.Errorf("bursts spec: %d events, err %v", len(s), err)
	}
	if s, err := Parse(m, 400, 3, "transient:rate=0.2,repair=10", 4096); err != nil || len(s) == 0 {
		t.Errorf("transient spec: %d events, err %v", len(s), err)
	}
	s, err := Parse(m, 100, 1, "recover@50:3,4; fail@10:3,4", 4096)
	if err != nil {
		t.Fatalf("explicit events: %v", err)
	}
	want := Schedule{
		{Cycle: 10, Node: mesh.Coord{X: 3, Y: 4}, Op: Fail},
		{Cycle: 50, Node: mesh.Coord{X: 3, Y: 4}, Op: Recover},
	}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("explicit events = %v, want %v", s, want)
	}
	if got := s[0].String(); got != "fail@10:3,4" {
		t.Errorf("Event.String = %q", got)
	}
	for _, bad := range []string{
		"random",                // missing required rate
		"random:rate=abc",       // unparsable
		"random:rate=0.1,foo=1", // unknown argument
		"bursts:count=-1",       // invalid shape
		"transient:rate=0.1,repair=-5",
		"warp:rate=0.1",  // unknown kind
		"fail@abc:1,2",   // bad cycle
		"fail@10:99,2",   // outside mesh
		"explode@10:1,2", // bad op
		"fail@10:1",      // bad node
	} {
		if _, err := Parse(m, 100, 1, bad, 4096); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseBounded checks that every way a spec can ask for more than
// maxEvents events is refused, and that a burst shape whose scan would
// exceed the mesh or the scan budget is refused before generation.
func TestParseBounded(t *testing.T) {
	m := testMesh(t)
	for _, spec := range []string{
		"fail@1:1,1;fail@2:2,2;fail@3:3,3",  // explicit list of 3
		"bursts:count=3,size=1,spread=0",    // count above the limit
		"transient:rate=1,repair=1",         // ~2 events per cycle
		"random:rate=1",                     // one event per cycle
		"bursts:count=1,size=1,spread=17",   // spread above the side
		"bursts:count=2,size=1,spread=-1",   // negative spread
		"fail@1:1,1;;fail@2:2,2;fail@3:3,3", // empty parts do not count, the rest do
	} {
		if s, err := Parse(m, 100, 1, spec, 2); err == nil {
			t.Errorf("Parse(%q, max 2) = %d events, want an error", spec, len(s))
		}
	}
	if s, err := Parse(m, 100, 1, "fail@1:1,1;;fail@2:2,2", 2); err != nil || len(s) != 2 {
		t.Errorf("two events at a limit of 2: %d events, err %v", len(s), err)
	}
	if _, err := Bursts(m, 100, maxBurstScan/m.Size()+1, 1, m.Width, 1); err == nil {
		t.Error("bursts past the scan budget should fail")
	}
	if s, err := Bursts(m, 100, 2, 4, m.Width, 1); err != nil || len(s) != 8 {
		t.Errorf("whole-mesh bursts: %d events, err %v; want 8", len(s), err)
	}
}

// TestRuntimeMatchesBatch replays a generated schedule step by step and
// checks after every change that the incrementally maintained fault
// regions and safety levels match a from-scratch rebuild of the same
// fault set.
func TestRuntimeMatchesBatch(t *testing.T) {
	m := mesh.Mesh{Width: 12, Height: 12}
	sched, err := Transient(m, 300, 0.2, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) == 0 {
		t.Fatal("empty schedule, pick another seed")
	}
	initial := []mesh.Coord{{X: 2, Y: 2}, {X: 2, Y: 3}}
	rt, err := NewRuntime(m, initial, sched)
	if err != nil {
		t.Fatal(err)
	}
	check := func(cycle int) {
		t.Helper()
		sc, err := fault.NewScenario(m, rt.Faults())
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		wantBlocked := fault.BuildBlocks(sc).BlockedGrid()
		gotBlocked := rt.Blocked()
		if !reflect.DeepEqual(gotBlocked, wantBlocked) {
			t.Fatalf("cycle %d: blocked grid diverged from batch rebuild", cycle)
		}
		wantLevels := safety.Compute(m, wantBlocked)
		for i := 0; i < m.Size(); i++ {
			c := m.CoordOf(i)
			if got, want := rt.Levels().At(c), wantLevels.At(c); got != want {
				t.Fatalf("cycle %d: level at %v = %v, want %v", cycle, c, got, want)
			}
		}
	}
	check(-1)
	for cycle := 0; cycle < 330 && rt.Pending() > 0; cycle++ {
		applied, err := rt.Step(cycle)
		if err != nil {
			t.Fatalf("Step(%d): %v", cycle, err)
		}
		if applied > 0 {
			check(cycle)
		}
	}
	if rt.Pending() != 0 {
		t.Fatalf("%d events never fired", rt.Pending())
	}
	applied, skipped, added, repaired := rt.Counts()
	if applied+skipped != len(sched) {
		t.Errorf("applied %d + skipped %d != %d scheduled", applied, skipped, len(sched))
	}
	if added == 0 || repaired == 0 {
		t.Errorf("transient schedule applied %d fails, %d recovers; want both nonzero", added, repaired)
	}
}

// TestRuntimeSkipsInapplicable checks that hand-written events which
// cannot apply (failing a failed node, recovering a healthy one) are
// counted, not fatal.
func TestRuntimeSkipsInapplicable(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	n := mesh.Coord{X: 3, Y: 3}
	sched := Schedule{
		{Cycle: 0, Node: n, Op: Fail},
		{Cycle: 1, Node: n, Op: Fail}, // already faulty: skipped
		{Cycle: 2, Node: n, Op: Recover},
		{Cycle: 3, Node: n, Op: Recover}, // healthy again: skipped
	}
	rt, err := NewRuntime(m, nil, sched)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < 4; c++ {
		a, err := rt.Step(c)
		if err != nil {
			t.Fatalf("Step(%d): %v", c, err)
		}
		total += a
	}
	applied, skipped, added, repaired := rt.Counts()
	if total != 2 || applied != 2 || skipped != 2 || added != 1 || repaired != 1 {
		t.Errorf("counts = applied %d skipped %d added %d repaired %d (total %d)", applied, skipped, added, repaired, total)
	}
	if len(rt.Faults()) != 0 || rt.InRegion(n) {
		t.Error("node should be healthy after the recover")
	}
}

func TestNewRuntimeRejectsBadInput(t *testing.T) {
	m := mesh.Mesh{Width: 8, Height: 8}
	if _, err := NewRuntime(m, []mesh.Coord{{X: 99, Y: 0}}, nil); err == nil {
		t.Error("initial fault outside mesh should fail")
	}
	if _, err := NewRuntime(m, nil, Schedule{{Cycle: 0, Node: mesh.Coord{X: 99, Y: 0}, Op: Fail}}); err == nil {
		t.Error("schedule outside mesh should fail")
	}
}
