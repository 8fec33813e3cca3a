package main

import (
	"fmt"

	"extmesh"
	"extmesh/meshclient"
)

// Answer digests. The served side and the library side of every check
// digest the same fields through these functions, so equal digests
// mean equal answers.

func routeDigest(hops int, path []extmesh.Coord, withPath bool) uint64 {
	d := newDigest()
	d.int(hops)
	if withPath {
		d.coords(path)
	}
	return d.sum()
}

func boolDigest(v bool) uint64 {
	d := newDigest()
	d.bool(v)
	return d.sum()
}

func ensureDigest(verdict string, via []extmesh.Coord) uint64 {
	d := newDigest()
	d.str(verdict)
	d.coords(via)
	return d.sum()
}

// batchDigest digests a route batch's hop counts, in order.
func batchDigest(results []meshclient.BatchRouteResult) uint64 {
	d := newDigest()
	for _, r := range results {
		if r.Error != "" {
			d.int(noPath)
		} else {
			d.int(r.Hops)
		}
	}
	return d.sum()
}

// oracle answers the same questions with the library over one fault
// set (extmesh.New), validating every path it returns.
type oracle struct {
	net *extmesh.Network
}

func newOracle(faults []extmesh.Coord) (*oracle, error) {
	net, err := extmesh.New(meshSide, meshSide, faults)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{net: net}, nil
}

// route returns the library's route (nil when it reports no path),
// after checking the path is minimal, connected and fault-free.
func (o *oracle) route(s, d extmesh.Coord) (extmesh.Path, error) {
	p, err := o.net.Route(s, d, extmesh.Blocks)
	if err != nil {
		return nil, nil
	}
	if err := o.validPath(p, s, d); err != nil {
		return nil, err
	}
	return p, nil
}

// validPath checks that p runs from s to d in exactly D(s,d) unit hops
// and visits no faulty node.
func (o *oracle) validPath(p extmesh.Path, s, d extmesh.Coord) error {
	if len(p) == 0 || p[0] != s || p[len(p)-1] != d {
		return fmt.Errorf("path %v does not run %v -> %v", p, s, d)
	}
	if len(p)-1 != manhattan(s, d) {
		return fmt.Errorf("path %v -> %v has %d hops, minimal is %d", s, d, len(p)-1, manhattan(s, d))
	}
	for i, c := range p {
		if o.net.IsFaulty(c) {
			return fmt.Errorf("path %v -> %v visits faulty node %v", s, d, c)
		}
		if i > 0 && manhattan(p[i-1], c) != 1 {
			return fmt.Errorf("path %v -> %v jumps %v -> %v", s, d, p[i-1], c)
		}
	}
	return nil
}

func (o *oracle) routeDigest(s, d extmesh.Coord, withPath bool) (uint64, error) {
	p, err := o.route(s, d)
	if err != nil {
		return 0, err
	}
	if p == nil {
		return routeDigest(noPath, nil, withPath), nil
	}
	return routeDigest(len(p)-1, p, withPath), nil
}

func (o *oracle) batchDigest(pairs []meshclient.Pair) (uint64, error) {
	dg := newDigest()
	for _, pr := range pairs {
		p, err := o.route(pr.Src, pr.Dst)
		if err != nil {
			return 0, err
		}
		if p == nil {
			dg.int(noPath)
		} else {
			dg.int(len(p) - 1)
		}
	}
	return dg.sum(), nil
}

func (o *oracle) queryDigest(q query) (uint64, error) {
	switch q.Op {
	case opRoute:
		return o.routeDigest(q.Src, q.Dst, true)
	case opHasMinimalPath:
		return boolDigest(o.net.HasMinimalPath(q.Src, q.Dst)), nil
	case opEnsure:
		a := o.net.Ensure(q.Src, q.Dst, extmesh.Blocks, extmesh.DefaultStrategy())
		return ensureDigest(a.Verdict.String(), a.Via()), nil
	default:
		return boolDigest(o.net.Safe(q.Src, q.Dst, extmesh.Blocks)), nil
	}
}

// checkRecords compares every served digest with the oracle's answer
// for the same input, computing each distinct input's answer once.
func checkRecords(what string, recs [][]answerRec, answer func(idx uint32) (uint64, error)) error {
	want := map[uint32]uint64{}
	checked := 0
	for _, rs := range recs {
		for _, r := range rs {
			w, ok := want[r.Idx]
			if !ok {
				var err error
				if w, err = answer(r.Idx); err != nil {
					return fmt.Errorf("%s %d: %w", what, r.Idx, err)
				}
				want[r.Idx] = w
			}
			if r.Digest != w {
				return fmt.Errorf("%s %d: served answer differs from the library's", what, r.Idx)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("no %s answers recorded", what)
	}
	return nil
}

func manhattan(a, b extmesh.Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
