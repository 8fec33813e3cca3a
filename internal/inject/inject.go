// Package inject generates deterministic fault schedules: seeded,
// reproducible lists of fail/recover events in cycle order — random
// arrivals at a configurable rate, clustered bursts, or transient
// faults that recover after a repair delay. The serving plane applies
// a parsed schedule as one fault-admin request, and the package's
// SubSeed/Rand streams seed the reliability sweeps.
package inject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"extmesh/internal/mesh"
)

// Op is the kind of a fault event.
type Op int

// The two event kinds: a node failing and a node being repaired.
const (
	Fail Op = iota + 1
	Recover
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case Fail:
		return "fail"
	case Recover:
		return "recover"
	default:
		return "invalid"
	}
}

// Event is one scheduled fault-state change: at the start of Cycle,
// Node fails or recovers.
type Event struct {
	Cycle int
	Node  mesh.Coord
	Op    Op
}

// String renders the event in the Parse input syntax.
func (e Event) String() string {
	return fmt.Sprintf("%s@%d:%d,%d", e.Op, e.Cycle, e.Node.X, e.Node.Y)
}

// Schedule is a list of fault events ordered by cycle. The zero value
// is the empty schedule (a static run).
type Schedule []Event

// Validate checks that the schedule is replayable on mesh m: known
// operations, non-negative cycles in non-decreasing order, and every
// node inside the mesh.
func (s Schedule) Validate(m mesh.Mesh) error {
	last := 0
	for i, e := range s {
		if e.Op != Fail && e.Op != Recover {
			return fmt.Errorf("inject: event %d has invalid op %d", i, e.Op)
		}
		if e.Cycle < 0 {
			return fmt.Errorf("inject: event %d at negative cycle %d", i, e.Cycle)
		}
		if e.Cycle < last {
			return fmt.Errorf("inject: event %d (%v) out of cycle order", i, e)
		}
		if !m.Contains(e.Node) {
			return fmt.Errorf("inject: event %d node %v outside mesh %v", i, e.Node, m)
		}
		last = e.Cycle
	}
	return nil
}

// maxBurstScan bounds the cells Bursts may scan in total: every burst
// scans the box of its spread around its center, so the count times the
// box area (clipped to the mesh) is the generator's work.
const maxBurstScan = 1 << 24

// maxFailedFraction caps how much of the mesh the generators will
// fail: random arrival streams stop once half the nodes are down, so
// a long run degrades instead of annihilating the network.
const maxFailedFraction = 2

// Random returns a schedule of permanent fault arrivals: each cycle
// one new uniformly random healthy node fails with probability rate.
// The schedule is fully determined by the seed.
func Random(m mesh.Mesh, cycles int, rate float64, seed int64) (Schedule, error) {
	if err := checkRate(m, cycles, rate); err != nil {
		return nil, err
	}
	rng := subRand(seed, streamRandom)
	alive := make([]int, m.Size())
	for i := range alive {
		alive[i] = i
	}
	var s Schedule
	for c := 0; c < cycles && len(alive) > m.Size()/maxFailedFraction; c++ {
		if rng.Float64() >= rate {
			continue
		}
		k := rng.Intn(len(alive))
		idx := alive[k]
		alive[k] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
		s = append(s, Event{Cycle: c, Node: m.CoordOf(idx), Op: Fail})
	}
	return s, nil
}

// Bursts returns a schedule of clustered fault bursts: at each of
// `bursts` random cycles, up to `size` distinct nodes within Chebyshev
// distance `spread` of a random center fail together — the spatially
// correlated failure mode (a dead power domain, a cracked region) that
// uniform arrival streams cannot model.
func Bursts(m mesh.Mesh, cycles, bursts, size, spread int, seed int64) (Schedule, error) {
	if cycles <= 0 {
		return nil, fmt.Errorf("inject: bursts need a positive cycle count, got %d", cycles)
	}
	if bursts <= 0 || size <= 0 || spread < 0 || spread > max(m.Width, m.Height) {
		return nil, fmt.Errorf("inject: invalid burst shape count=%d size=%d spread=%d on %v", bursts, size, spread, m)
	}
	if area := min(2*spread+1, m.Width) * min(2*spread+1, m.Height); bursts > maxBurstScan/max(area, 1) {
		return nil, fmt.Errorf("inject: %d bursts of spread %d scan more than %d cells", bursts, spread, maxBurstScan)
	}
	rng := subRand(seed, streamBursts)
	when := make([]int, bursts)
	for i := range when {
		when[i] = rng.Intn(cycles)
	}
	sort.Ints(when)
	failed := make([]bool, m.Size())
	down := 0
	var s Schedule
	for _, c := range when {
		if down > m.Size()/maxFailedFraction {
			break
		}
		center := m.CoordOf(rng.Intn(m.Size()))
		var box []int
		for y := max(center.Y-spread, 0); y <= min(center.Y+spread, m.Height-1); y++ {
			for x := max(center.X-spread, 0); x <= min(center.X+spread, m.Width-1); x++ {
				if idx := m.Index(mesh.Coord{X: x, Y: y}); !failed[idx] {
					box = append(box, idx)
				}
			}
		}
		perm := rng.Perm(len(box))
		for i := 0; i < size && i < len(box); i++ {
			idx := box[perm[i]]
			failed[idx] = true
			down++
			s = append(s, Event{Cycle: c, Node: m.CoordOf(idx), Op: Fail})
		}
	}
	return s, nil
}

// Transient returns a schedule of transient faults: arrivals like
// Random, but every failed node recovers `repair` cycles later (and
// may fail again afterwards), modeling soft errors and reconfiguration
// windows rather than permanent attrition.
func Transient(m mesh.Mesh, cycles int, rate float64, repair int, seed int64) (Schedule, error) {
	if err := checkRate(m, cycles, rate); err != nil {
		return nil, err
	}
	if repair <= 0 {
		return nil, fmt.Errorf("inject: repair delay must be positive, got %d", repair)
	}
	rng := subRand(seed, streamTransient)
	downUntil := make([]int, m.Size())
	var s Schedule
	for c := 0; c < cycles; c++ {
		if rng.Float64() >= rate {
			continue
		}
		picked := -1
		for try := 0; try < 64; try++ {
			i := rng.Intn(m.Size())
			if downUntil[i] <= c {
				picked = i
				break
			}
		}
		if picked < 0 {
			continue // mesh saturated with concurrent transients
		}
		downUntil[picked] = c + repair
		co := m.CoordOf(picked)
		s = append(s,
			Event{Cycle: c, Node: co, Op: Fail},
			Event{Cycle: c + repair, Node: co, Op: Recover})
	}
	// Stable: a recover scheduled earlier stays ahead of a same-cycle
	// re-fail of the same node.
	sort.SliceStable(s, func(i, j int) bool { return s[i].Cycle < s[j].Cycle })
	return s, nil
}

func checkRate(m mesh.Mesh, cycles int, rate float64) error {
	if m.Size() == 0 {
		return fmt.Errorf("inject: empty mesh")
	}
	if cycles <= 0 {
		return fmt.Errorf("inject: schedule needs a positive cycle count, got %d", cycles)
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("inject: fault rate %v outside [0,1]", rate)
	}
	return nil
}

// Parse builds a schedule from a textual spec, the CLI surface of the
// generators. Accepted forms:
//
//	""                                  no events (static run)
//	"none"                              no events (static run)
//	"random:rate=0.01"                  Random arrivals
//	"bursts:count=3,size=8,spread=2"    clustered Bursts
//	"transient:rate=0.01,repair=50"     Transient faults with recovery
//	"fail@10:3,4;recover@50:3,4"        explicit event list
//
// Generated specs run over [0, cycles) with the given seed; explicit
// event lists are used verbatim (sorted by cycle). A schedule of more
// than maxEvents events is an error, and so is a bursts count above
// maxEvents: both are rejected before any event reaches the caller.
func Parse(m mesh.Mesh, cycles int, seed int64, spec string, maxEvents int) (Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	if strings.Contains(spec, "@") {
		return parseEvents(m, spec, maxEvents)
	}
	s, err := generate(m, cycles, seed, spec, maxEvents)
	if err == nil && len(s) > maxEvents {
		return nil, fmt.Errorf("inject: schedule of %d events exceeds the %d limit", len(s), maxEvents)
	}
	return s, err
}

func generate(m mesh.Mesh, cycles int, seed int64, spec string, maxEvents int) (Schedule, error) {
	kind, argstr, _ := strings.Cut(spec, ":")
	args, err := parseArgs(argstr)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "random":
		rate, err := floatArg(args, "rate", -1)
		if err != nil {
			return nil, err
		}
		if err := noExtraArgs(args, "rate"); err != nil {
			return nil, err
		}
		return Random(m, cycles, rate, seed)
	case "bursts":
		count, err1 := intArg(args, "count", 2)
		size, err2 := intArg(args, "size", 6)
		spread, err3 := intArg(args, "spread", 2)
		if err := firstErr(err1, err2, err3, noExtraArgs(args, "count", "size", "spread")); err != nil {
			return nil, err
		}
		if count > maxEvents {
			return nil, fmt.Errorf("inject: %d bursts exceed the %d event limit", count, maxEvents)
		}
		return Bursts(m, cycles, count, size, spread, seed)
	case "transient":
		rate, err1 := floatArg(args, "rate", -1)
		repair, err2 := intArg(args, "repair", 50)
		if err := firstErr(err1, err2, noExtraArgs(args, "rate", "repair")); err != nil {
			return nil, err
		}
		return Transient(m, cycles, rate, repair, seed)
	default:
		return nil, fmt.Errorf("inject: unknown schedule kind %q (want random, bursts, transient, or an explicit fail@/recover@ list)", kind)
	}
}

func parseEvents(m mesh.Mesh, spec string, maxEvents int) (Schedule, error) {
	var s Schedule
	for more := true; more; {
		var part string
		part, spec, more = strings.Cut(spec, ";")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if len(s) == maxEvents {
			return nil, fmt.Errorf("inject: event list exceeds the %d event limit", maxEvents)
		}
		opStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("inject: bad event %q (want op@cycle:x,y)", part)
		}
		var op Op
		switch opStr {
		case "fail":
			op = Fail
		case "recover":
			op = Recover
		default:
			return nil, fmt.Errorf("inject: bad event op %q (want fail or recover)", opStr)
		}
		cycStr, coordStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("inject: bad event %q (want op@cycle:x,y)", part)
		}
		cycle, err := strconv.Atoi(cycStr)
		if err != nil {
			return nil, fmt.Errorf("inject: bad event cycle %q: %v", cycStr, err)
		}
		xs, ys, ok := strings.Cut(coordStr, ",")
		if !ok {
			return nil, fmt.Errorf("inject: bad event node %q (want x,y)", coordStr)
		}
		x, err1 := strconv.Atoi(strings.TrimSpace(xs))
		y, err2 := strconv.Atoi(strings.TrimSpace(ys))
		if err := firstErr(err1, err2); err != nil {
			return nil, fmt.Errorf("inject: bad event node %q: %v", coordStr, err)
		}
		s = append(s, Event{Cycle: cycle, Node: mesh.Coord{X: x, Y: y}, Op: op})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].Cycle < s[j].Cycle })
	if err := s.Validate(m); err != nil {
		return nil, err
	}
	return s, nil
}

func parseArgs(s string) (map[string]string, error) {
	args := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("inject: bad schedule argument %q (want key=value)", kv)
		}
		args[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return args, nil
}

// floatArg reads a float argument; def < 0 marks it required.
func floatArg(args map[string]string, key string, def float64) (float64, error) {
	v, ok := args[key]
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("inject: schedule argument %q is required", key)
		}
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("inject: bad %s=%q: %v", key, v, err)
	}
	return f, nil
}

func intArg(args map[string]string, key string, def int) (int, error) {
	v, ok := args[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("inject: bad %s=%q: %v", key, v, err)
	}
	return n, nil
}

func noExtraArgs(args map[string]string, known ...string) error {
	for k := range args {
		found := false
		for _, want := range known {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("inject: unknown schedule argument %q (known: %s)", k, strings.Join(known, ", "))
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
