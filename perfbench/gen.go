package main

import (
	"fmt"
	"math/rand"

	"extmesh"
	"extmesh/internal/fault"
	"extmesh/internal/mesh"
)

// The paper's evaluation scale, and the name every workload registers
// its mesh under.
const (
	meshSide = 200
	meshName = "bench"
)

// Random streams drawn from one workload seed. Each input has its own
// stream, so adding draws to one input never shifts another.
const (
	streamFaults int64 = iota + 1
	streamPairs
	streamQueries
	streamWrites
	streamProbes
	streamSweep
)

// rng returns the seeded generator of one input stream.
func rng(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// randomFaults places k faults uniformly at random on the mesh.
func randomFaults(seed int64, k int) ([]extmesh.Coord, error) {
	m := mesh.Mesh{Width: meshSide, Height: meshSide}
	faults, err := fault.RandomFaults(m, k, rng(seed, streamFaults), nil)
	if err != nil {
		return nil, fmt.Errorf("place %d faults: %w", k, err)
	}
	return faults, nil
}

// healthyNodes lists the nodes outside every fault region (block
// model) of net, in index order.
func healthyNodes(net *extmesh.Network) []extmesh.Coord {
	var out []extmesh.Coord
	for y := 0; y < net.Height(); y++ {
		for x := 0; x < net.Width(); x++ {
			c := extmesh.Coord{X: x, Y: y}
			if !net.InRegion(c, extmesh.Blocks) {
				out = append(out, c)
			}
		}
	}
	return out
}

// uniformPairs draws n (source, destination) pairs uniformly from
// nodes, with distinct endpoints.
func uniformPairs(r *rand.Rand, nodes []extmesh.Coord, n int) []extmesh.Pair {
	out := make([]extmesh.Pair, n)
	for i := range out {
		s := nodes[r.Intn(len(nodes))]
		d := nodes[r.Intn(len(nodes))]
		for d == s {
			d = nodes[r.Intn(len(nodes))]
		}
		out[i] = extmesh.Pair{Src: s, Dst: d}
	}
	return out
}

// queryOp is one single-pair query kind of the JSON mix.
type queryOp uint8

const (
	opRoute queryOp = iota
	opHasMinimalPath
	opEnsure
	opSafe
)

// query is one generated single-pair request.
type query struct {
	Op       queryOp
	Src, Dst extmesh.Coord
}

// zipfS is the source skew of the JSON mix. With s = 1.1 over ~40k
// healthy sources, the hottest 1024 sources (the per-snapshot reach
// cache's capacity) draw well under all of the traffic, so the cache
// sees both hits and misses.
const zipfS = 1.1

// queryMix draws n queries: 40% route, 30% has-minimal-path, 20%
// ensure, 10% safe; Zipf-distributed sources over a seeded ranking of
// nodes, uniform destinations.
func queryMix(seed int64, nodes []extmesh.Coord, n int) []query {
	r := rng(seed, streamQueries)
	rank := r.Perm(len(nodes))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(nodes)-1))
	out := make([]query, n)
	for i := range out {
		s := nodes[rank[z.Uint64()]]
		d := nodes[r.Intn(len(nodes))]
		for d == s {
			d = nodes[r.Intn(len(nodes))]
		}
		var op queryOp
		switch x := r.Intn(100); {
		case x < 40:
			op = opRoute
		case x < 70:
			op = opHasMinimalPath
		case x < 90:
			op = opEnsure
		default:
			op = opSafe
		}
		out[i] = query{Op: op, Src: s, Dst: d}
	}
	return out
}

// faultEvent is one transient write of the churn workload.
type faultEvent struct {
	Fail bool
	Node extmesh.Coord
}

// writePlan generates the churn writer's events: each fails a fresh
// healthy node or recovers the oldest fault the plan injected, so the
// fault count stays within [initial, initial+maxExtra]. The sequence
// depends only on the seed, never on timing.
type writePlan struct {
	r        *rand.Rand
	faulty   map[extmesh.Coord]bool
	exclude  map[extmesh.Coord]bool
	injected []extmesh.Coord
	maxExtra int
}

// newWritePlan starts a plan over the initial fault set; nodes in
// exclude (the readers' endpoints) are never failed.
func newWritePlan(seed int64, initial []extmesh.Coord, exclude map[extmesh.Coord]bool, maxExtra int) *writePlan {
	p := &writePlan{r: rng(seed, streamWrites), faulty: map[extmesh.Coord]bool{}, exclude: exclude, maxExtra: maxExtra}
	for _, c := range initial {
		p.faulty[c] = true
	}
	return p
}

func (p *writePlan) next() faultEvent {
	if len(p.injected) == 0 || (len(p.injected) < p.maxExtra && p.r.Intn(2) == 0) {
		for {
			c := extmesh.Coord{X: p.r.Intn(meshSide), Y: p.r.Intn(meshSide)}
			if !p.faulty[c] && !p.exclude[c] {
				p.faulty[c] = true
				p.injected = append(p.injected, c)
				return faultEvent{Fail: true, Node: c}
			}
		}
	}
	c := p.injected[0]
	p.injected = p.injected[1:]
	delete(p.faulty, c)
	return faultEvent{Fail: false, Node: c}
}

// applyEvent returns the fault list after ev, in the same order the
// server's tracker keeps (arrival order, recoveries removed).
func applyEvent(faults []extmesh.Coord, ev faultEvent) []extmesh.Coord {
	if ev.Fail {
		return append(faults[:len(faults):len(faults)], ev.Node)
	}
	out := make([]extmesh.Coord, 0, len(faults))
	for _, c := range faults {
		if c != ev.Node {
			out = append(out, c)
		}
	}
	return out
}
