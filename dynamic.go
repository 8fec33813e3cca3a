package extmesh

import (
	"fmt"
	"sync"

	"extmesh/internal/dynamic"
	"extmesh/internal/mesh"
	"extmesh/internal/route"
	"extmesh/internal/wang"
)

// DynamicNetwork maintains fault regions and extended safety levels
// incrementally while faults keep arriving — the paper's maintenance
// model, in which a disturbance updates only the affected nodes. Use
// it for long-running systems; call Freeze to obtain an immutable
// Network with the full API for the current fault set.
//
// Concurrency contract: a DynamicNetwork is safe for concurrent use.
// Every mutation (AddFault, RemoveFault) and every query runs under an
// internal lock, so queries never observe a half-applied update and
// always reflect every mutation that completed before the query began.
// Mutations serialize with each other; a query racing a mutation sees
// the state either before or after it, never in between. The internal
// reachability memo is version-stamped and dropped on each mutation,
// so a stale cached verdict is never served.
type DynamicNetwork struct {
	// mu guards the tracker and the reachability memo below. The
	// tracker itself is single-threaded by design; every method of
	// DynamicNetwork that touches it must hold mu.
	mu      sync.Mutex
	tracker *dynamic.Tracker
	width   int
	height  int

	// reach memoizes minimal-path reachability for the fault set at
	// version reachVersion; every successful mutation bumps version,
	// which invalidates the memo lazily.
	version      uint64
	reachVersion uint64
	reach        *wang.ReachCache

	// snap memoizes the frozen Network for the fault set at version
	// snapVersion, so long-running services can serve full-API queries
	// (routing, conditions, MCCs) without rebuilding the derived
	// structures on every request.
	snapVersion uint64
	snap        *Network

	// views shares the routers' orientation views (boundary contours)
	// across every Network materialized for one mutation version, the
	// router-side analogue of the reach memo: a Freeze after a Snapshot
	// at the same version skips the O(mesh) boundary reconstruction.
	// Entries are generation-stamped with the mutation version, so a
	// view never outlives the fault set it was built from.
	views *route.ViewCache
}

// NewDynamic returns a dynamic network over an initially fault-free
// width x height mesh.
func NewDynamic(width, height int) (*DynamicNetwork, error) {
	m, err := mesh.New(width, height)
	if err != nil {
		return nil, err
	}
	tr, err := dynamic.New(m)
	if err != nil {
		return nil, err
	}
	return &DynamicNetwork{tracker: tr, width: width, height: height, views: route.NewViewCache()}, nil
}

// AddFault marks c faulty and updates the fault regions and safety
// levels incrementally. It returns an error for out-of-mesh or
// duplicate faults. On success any cached reachability verdicts are
// invalidated.
func (d *DynamicNetwork) AddFault(c Coord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tracker.AddFault(c); err != nil {
		return err
	}
	d.version++
	return nil
}

// RemoveFault repairs a faulty node, shrinking its fault region
// incrementally (only the affected component relabels and only its
// rows and columns resweep). On success any cached reachability
// verdicts are invalidated.
func (d *DynamicNetwork) RemoveFault(c Coord) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.tracker.RemoveFault(c); err != nil {
		return err
	}
	d.version++
	return nil
}

// reachCache returns a reachability memo matching the current fault
// set, rebuilding it if any fault arrived since it was built. The
// returned cache is itself concurrency-safe and immutable with respect
// to the fault set it was built from.
func (d *DynamicNetwork) reachCache() *wang.ReachCache {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.reach == nil || d.reachVersion != d.version {
		m := mesh.Mesh{Width: d.width, Height: d.height}
		d.reach = wang.NewReachCache(m, d.tracker.FaultGrid(), ReachCacheCapacity)
		d.reachVersion = d.version
	}
	return d.reach
}

// HasMinimalPath reports whether a minimal path from s to dst exists
// that avoids the current faulty nodes. Repeated queries between
// mutations share memoized per-source reachability sweeps; every
// AddFault or RemoveFault invalidates the memo, so the answer always
// reflects the latest completed mutation.
func (d *DynamicNetwork) HasMinimalPath(s, dst Coord) bool {
	return d.reachCache().CanReach(s, dst)
}

// LastUpdateCost reports how local the most recent AddFault was: the
// number of nodes that joined fault regions, and the rows and columns
// whose safety levels resweeped.
func (d *DynamicNetwork) LastUpdateCost() (cascade, rows, cols int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.LastUpdateCost()
}

// Faults returns the faults added so far, in arrival order.
func (d *DynamicNetwork) Faults() []Coord {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.Faults()
}

// InRegion reports whether c currently belongs to a fault region
// (block model).
func (d *DynamicNetwork) InRegion(c Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.InRegion(c)
}

// SafetyLevel returns the current extended safety level of c.
func (d *DynamicNetwork) SafetyLevel(c Coord) Level {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.Level(c)
}

// Safe evaluates the base sufficient safe condition on the current
// state.
func (d *DynamicNetwork) Safe(s, dst Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.tracker.InRegion(s) || d.tracker.InRegion(dst) {
		return false
	}
	return d.tracker.Levels().SafeFor(s, dst)
}

// Freeze builds an immutable Network for the current fault set, giving
// access to the full API (MCCs, routing, conditions, serialization).
func (d *DynamicNetwork) Freeze() (*Network, error) {
	d.mu.Lock()
	v := d.version
	faults := d.tracker.Faults()
	d.mu.Unlock()
	n, err := New(d.width, d.height, faults)
	if err != nil {
		return nil, err
	}
	if d.views != nil {
		n.attachViewCache(d.views, v)
	}
	return n, nil
}

// Width returns the mesh's X extent.
func (d *DynamicNetwork) Width() int { return d.width }

// Height returns the mesh's Y extent.
func (d *DynamicNetwork) Height() int { return d.height }

// Version returns the mutation counter: it increases on every
// successful AddFault/RemoveFault, so two equal Version readings
// bracket an unchanged fault set.
func (d *DynamicNetwork) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// RestoreVersion fast-forwards the mutation counter to v. It exists
// for durability layers that persist a network blob together with the
// version it carried when saved: rebuilding from the blob replays only
// the surviving faults, so the rebuilt network's counter restarts at
// the fault count, not at the pre-crash mutation total. Restoring the
// saved version keeps version-keyed state — snapshot memoization,
// journal replay, crash-recovery equivalence checks — consistent with
// the full pre-crash history. Moving the counter backwards is rejected:
// it could make stale memoized state look current again.
func (d *DynamicNetwork) RestoreVersion(v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v < d.version {
		return fmt.Errorf("extmesh: cannot restore version %d below current %d", v, d.version)
	}
	d.version = v
	return nil
}

// FaultCount returns the current number of faulty nodes.
func (d *DynamicNetwork) FaultCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.FaultCount()
}

// IsFaulty reports whether c is currently faulty.
func (d *DynamicNetwork) IsFaulty(c Coord) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.IsFaulty(c)
}

// Snapshot returns an immutable Network for the current fault set,
// memoized by mutation version: while no fault arrives or recovers,
// every call returns the same frozen Network (whose own lazy caches —
// models, routers, reachability — therefore stay warm across calls).
// This is the serving hot path: a daemon answers route and condition
// queries against the snapshot and pays one rebuild per mutation, not
// per request.
//
// A Snapshot call racing a mutation returns a Network for either the
// pre- or post-mutation fault set, consistent with the DynamicNetwork
// concurrency contract.
func (d *DynamicNetwork) Snapshot() (*Network, error) {
	d.mu.Lock()
	if d.snap != nil && d.snapVersion == d.version {
		n := d.snap
		d.mu.Unlock()
		return n, nil
	}
	v := d.version
	faults := d.tracker.Faults()
	d.mu.Unlock()

	// Build outside the lock: construction is O(mesh), and queries or
	// mutations must not stall behind it.
	n, err := New(d.width, d.height, faults)
	if err != nil {
		return nil, err
	}
	if d.views != nil {
		n.attachViewCache(d.views, v)
	}
	d.mu.Lock()
	if d.version == v {
		d.snap = n
		d.snapVersion = v
	}
	d.mu.Unlock()
	// If the version moved on, n still reflects the fault set at the
	// time this call began; return it without caching.
	return n, nil
}

// Apply performs a batch of mutations: every node in fail is marked
// faulty and every node in recover is repaired, in order. Mutations
// that cannot apply — failing an already-faulty node, recovering a
// healthy one — are skipped and counted rather than fatal, so a
// journaled batch replays onto a live network idempotently. Nodes
// outside the mesh return an error and abort the batch (applied
// reports how far it got).
func (d *DynamicNetwork) Apply(fail, recover []Coord) (applied, skipped int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := mesh.Mesh{Width: d.width, Height: d.height}
	for _, c := range fail {
		if !m.Contains(c) {
			return applied, skipped, fmt.Errorf("extmesh: fail node %v outside mesh %v", c, m)
		}
		if d.tracker.IsFaulty(c) {
			skipped++
			continue
		}
		if err := d.tracker.AddFault(c); err != nil {
			return applied, skipped, err
		}
		d.version++
		applied++
	}
	for _, c := range recover {
		if !m.Contains(c) {
			return applied, skipped, fmt.Errorf("extmesh: recover node %v outside mesh %v", c, m)
		}
		if !d.tracker.IsFaulty(c) {
			skipped++
			continue
		}
		if err := d.tracker.RemoveFault(c); err != nil {
			return applied, skipped, err
		}
		d.version++
		applied++
	}
	return applied, skipped, nil
}
